package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources diverged: %d != %d", i, got, want)
		}
	}
}

func TestSourceDifferentSeedsDiverge(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestMixIsOrderSensitive(t *testing.T) {
	if Mix(1, 2) == Mix(2, 1) {
		t.Fatal("Mix(1,2) == Mix(2,1); keys must be order-sensitive")
	}
	if Mix(1) == Mix(1, 0) {
		t.Fatal("Mix(1) == Mix(1,0); length must matter")
	}
}

func TestMixDeterministic(t *testing.T) {
	f := func(a, b, c uint64) bool {
		return Mix(a, b, c) == Mix(a, b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformityCoarse(t *testing.T) {
	// Coarse chi-squared sanity check on 16 buckets.
	r := New(123)
	const draws = 1 << 16
	var buckets [16]int
	for i := 0; i < draws; i++ {
		buckets[r.Uint64()>>60]++
	}
	expected := float64(draws) / 16
	chi2 := 0.0
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile is ~37.7.
	if chi2 > 37.7 {
		t.Fatalf("chi-squared = %.1f, suspiciously non-uniform", chi2)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 || math.IsNaN(f) {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestZeroStateAvoided(t *testing.T) {
	// Even for adversarial seeds the xoshiro state must be non-zero.
	for _, seed := range []uint64{0, ^uint64(0), 0x9e3779b97f4a7c15} {
		s := NewSource(seed)
		if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
			t.Fatalf("seed %#x produced all-zero state", seed)
		}
	}
}

func BenchmarkSourceUint64(b *testing.B) {
	s := NewSource(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

// benchSink keeps the benchmarked draws live.
var benchSink uint64

// BenchmarkMix is a four-key draw through the variadic mixer, the shape
// of a channel's link draw (seed, tag, round, link); each draw keys the
// next, so the loop measures latency.
func BenchmarkMix(b *testing.B) {
	x := uint64(7)
	for i := 0; i < b.N; i++ {
		x = Mix(42, 0xe7a5, uint64(i), x)
	}
	benchSink = x
}

// BenchmarkPrefixMix2 is the same draw with its two fixed keys
// absorbed once.
func BenchmarkPrefixMix2(b *testing.B) {
	p := NewPrefix(42, 0xe7a5)
	x := uint64(7)
	for i := 0; i < b.N; i++ {
		x = p.Mix2(uint64(i), x)
	}
	benchSink = x
}
