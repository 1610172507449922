package rlnc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"radiocast/internal/bitvec"
)

func randMessages(r *rand.Rand, k, l int) []Message {
	msgs := make([]Message, k)
	for i := range msgs {
		msgs[i] = bitvec.RandomVec(l, r.Uint64)
	}
	return msgs
}

// verifyPacket reports whether p's payload is the XOR of the
// ground-truth messages its coefficient vector selects: the end-to-end
// integrity check every relayed RLNC packet must pass.
func verifyPacket(p Packet, msgs []Message, l int) bool {
	want := bitvec.New(l)
	for i := range msgs {
		if p.Coeff.Get(i) {
			want.XorInPlace(msgs[i])
		}
	}
	return bitvec.Equal(p.Payload, want)
}

func TestSourceBufferDecodesImmediately(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	msgs := randMessages(r, 8, 32)
	src := NewSourceBuffer(0, msgs, 32)
	if !src.CanDecode() {
		t.Fatal("source cannot decode its own messages")
	}
	got, ok := src.Decode()
	if !ok {
		t.Fatal("Decode failed")
	}
	for i := range msgs {
		if !bitvec.Equal(got[i], msgs[i]) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestRelayChainDecodes(t *testing.T) {
	// Source -> relay -> sink, each hop forwarding random combinations,
	// must converge to full rank at the sink. This is the smallest
	// end-to-end RLNC pipeline.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k, l := 1+r.Intn(12), 16
		msgs := randMessages(r, k, l)
		src := NewSourceBuffer(0, msgs, l)
		relay := NewBuffer(0, k, l)
		sink := NewBuffer(0, k, l)
		for i := 0; i < 30*k+60 && !sink.CanDecode(); i++ {
			if p, ok := src.RandomPacket(r); ok {
				relay.Add(p)
			}
			if p, ok := relay.RandomPacket(r); ok {
				sink.Add(p)
			}
		}
		if !sink.CanDecode() {
			return false
		}
		got, ok := sink.Decode()
		if !ok {
			return false
		}
		for i := range msgs {
			if !bitvec.Equal(got[i], msgs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddInnovativeAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	msgs := randMessages(r, 5, 8)
	src := NewSourceBuffer(0, msgs, 8)
	buf := NewBuffer(0, 5, 8)
	innovative := 0
	for i := 0; i < 200 && !buf.CanDecode(); i++ {
		p, _ := src.RandomPacket(r)
		if buf.Add(p) {
			innovative++
		}
	}
	if innovative != 5 {
		t.Fatalf("innovative packets = %d, want exactly k=5", innovative)
	}
}

func TestPacketsAreConsistent(t *testing.T) {
	// Every packet emitted anywhere in a random relay network must
	// satisfy payload = coeff · messages (integrity invariant).
	r := rand.New(rand.NewSource(9))
	const k, l = 6, 24
	msgs := randMessages(r, k, l)
	src := NewSourceBuffer(0, msgs, l)
	bufs := []*Buffer{NewBuffer(0, k, l), NewBuffer(0, k, l), NewBuffer(0, k, l)}
	for i := 0; i < 500; i++ {
		from := src
		if j := r.Intn(4); j > 0 {
			from = bufs[j-1]
		}
		p, ok := from.RandomPacket(r)
		if !ok {
			continue
		}
		if !verifyPacket(p, msgs, l) {
			t.Fatalf("iteration %d: inconsistent packet", i)
		}
		bufs[r.Intn(3)].Add(p)
	}
}

func TestInfectionDefinition(t *testing.T) {
	// Def 3.8: infected by μ iff some stored coeff has <μ,c> ≠ 0.
	buf := NewBuffer(0, 4, 4)
	mu := bitvec.FromBits([]bool{true, false, true, false})
	if buf.InfectedBy(mu) {
		t.Fatal("empty buffer infected")
	}
	// Orthogonal packet: coeff = e1 ⊕ e3 has <μ,c> = 1⊕1 = 0.
	orth := bitvec.FromBits([]bool{true, false, true, false})
	buf.Add(Packet{Coeff: orth, Payload: bitvec.New(4)})
	if buf.InfectedBy(mu) {
		t.Fatal("orthogonal packet caused infection")
	}
	nonOrth := bitvec.Unit(4, 0)
	buf.Add(Packet{Coeff: nonOrth, Payload: bitvec.New(4)})
	if !buf.InfectedBy(mu) {
		t.Fatal("non-orthogonal packet did not infect")
	}
}

func TestInfectionTransferProbability(t *testing.T) {
	// Prop 3.9: if v is infected by μ and u receives a random packet
	// from v, then u becomes infected with probability >= 1/2.
	r := rand.New(rand.NewSource(17))
	const k, l, trials = 8, 8, 4000
	msgs := randMessages(r, k, l)
	mu := bitvec.RandomNonZeroVec(k, r.Uint64)
	// Build an infected sender with a few random dimensions plus one
	// guaranteed non-orthogonal row.
	sender := NewBuffer(0, k, l)
	src := NewSourceBuffer(0, msgs, l)
	for sender.Rank() < 4 {
		p, _ := src.RandomPacket(r)
		sender.Add(p)
	}
	for !sender.InfectedBy(mu) {
		p, _ := src.RandomPacket(r)
		sender.Add(p)
	}
	infected := 0
	for i := 0; i < trials; i++ {
		p, _ := sender.RandomPacket(r)
		if bitvec.Dot(mu, p.Coeff) {
			infected++
		}
	}
	// Expected exactly 1/2 (uniform over subspace, half non-orthogonal);
	// allow generous slack.
	if infected < trials*2/5 {
		t.Fatalf("infection transfer rate %d/%d < 0.4 (want ~0.5)", infected, trials)
	}
}

func TestDecodeMatchesFullInfection(t *testing.T) {
	// Prop 3.9 second half: infected by all 2^k vectors ⇔ can decode.
	r := rand.New(rand.NewSource(23))
	const k, l = 5, 8
	msgs := randMessages(r, k, l)
	src := NewSourceBuffer(0, msgs, l)
	buf := NewBuffer(0, k, l)
	for !buf.CanDecode() {
		p, _ := src.RandomPacket(r)
		buf.Add(p)
	}
	// Now check all non-zero μ.
	for m := 1; m < 1<<k; m++ {
		mu := bitvec.New(k)
		for i := 0; i < k; i++ {
			if m&(1<<i) != 0 {
				mu.Set(i)
			}
		}
		if !buf.InfectedBy(mu) {
			t.Fatalf("decodable buffer not infected by %s", mu)
		}
	}
}

func TestGenerationMismatchPanics(t *testing.T) {
	buf := NewBuffer(1, 3, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	buf.Add(Packet{Gen: 2, Coeff: bitvec.Unit(3, 0), Payload: bitvec.New(4)})
}

func TestStoreGenerationRouting(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const total, genSize, l = 10, 4, 8
	msgs := randMessages(r, total, l)
	src := NewSourceStore(msgs, genSize, l)
	if src.Generations() != 3 {
		t.Fatalf("generations = %d, want 3", src.Generations())
	}
	sink := NewStore(total, genSize, l)
	for i := 0; i < 2000 && !sink.CanDecodeAll(); i++ {
		g := r.Intn(src.Generations())
		p, ok := src.RandomPacket(g, r)
		if !ok {
			continue
		}
		sink.Add(p)
	}
	got, ok := sink.DecodeAll()
	if !ok {
		t.Fatal("sink cannot decode after 2000 packets")
	}
	if len(got) != total {
		t.Fatalf("decoded %d messages, want %d", len(got), total)
	}
	for i := range msgs {
		if !bitvec.Equal(got[i], msgs[i]) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestGenBounds(t *testing.T) {
	cases := []struct {
		total, size, gen, lo, hi int
	}{
		{10, 4, 0, 0, 4}, {10, 4, 1, 4, 8}, {10, 4, 2, 8, 10},
		{4, 4, 0, 0, 4}, {1, 8, 0, 0, 1},
	}
	for _, c := range cases {
		lo, hi := GenBounds(c.total, c.size, c.gen)
		if lo != c.lo || hi != c.hi {
			t.Errorf("GenBounds(%d,%d,%d) = (%d,%d), want (%d,%d)",
				c.total, c.size, c.gen, lo, hi, c.lo, c.hi)
		}
	}
	if NumGenerations(10, 4) != 3 || NumGenerations(8, 4) != 2 {
		t.Fatal("NumGenerations wrong")
	}
}

func TestPacketBitsIncludesHeader(t *testing.T) {
	p := Packet{Coeff: bitvec.New(10), Payload: bitvec.New(32)}
	if p.Bits() != 10+32+16 {
		t.Fatalf("Bits = %d", p.Bits())
	}
}

func BenchmarkRandomPacketK64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	msgs := randMessages(r, 64, 64)
	src := NewSourceBuffer(0, msgs, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = src.RandomPacket(r)
	}
}

func BenchmarkDecodeK64(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	msgs := randMessages(r, 64, 64)
	src := NewSourceBuffer(0, msgs, 64)
	packets := make([]Packet, 0, 200)
	for len(packets) < 200 {
		p, _ := src.RandomPacket(r)
		packets = append(packets, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := NewBuffer(0, 64, 64)
		for _, p := range packets {
			if buf.CanDecode() {
				break
			}
			buf.Add(p)
		}
		if _, ok := buf.Decode(); !ok {
			b.Fatal("decode failed")
		}
	}
}
