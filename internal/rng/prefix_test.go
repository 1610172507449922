package rng

import "testing"

// TestPrefixMatchesMix pins Prefix to its definition: for every
// leading-key list k, NewPrefix(k...).Mix2(b, c) is the variadic
// Mix(k..., b, c) bit for bit, so moving a hot draw onto a prefix
// changes no stream.
func TestPrefixMatchesMix(t *testing.T) {
	trail := [][2]uint64{{0, 0}, {1, 2}, {^uint64(0), ^uint64(0)}, {gamma, mixInit}}
	for i := uint64(0); i < 64; i++ {
		trail = append(trail, [2]uint64{i * gamma, i<<32 | ^i>>32})
	}
	// Leading-key lists of length 0 to 4, with edge values among them.
	leads := [][]uint64{{}, {0}, {^uint64(0)}, {42, 0xdd}, {1, 0xe7a5, 7}, {^uint64(0), 0x6d15, 0, gamma}}
	for _, lead := range leads {
		p := NewPrefix(lead...)
		for _, bc := range trail {
			got := p.Mix2(bc[0], bc[1])
			if want := Mix(append(append([]uint64{}, lead...), bc[0], bc[1])...); got != want {
				t.Fatalf("NewPrefix(%#x).Mix2(%#x, %#x) = %#x, Mix = %#x", lead, bc[0], bc[1], got, want)
			}
		}
	}
}

// FuzzPrefixMix checks Prefix against Mix over fuzzed keys: n (mod 5)
// of the four leading keys form the prefix, and b, c are the trailing
// keys.
func FuzzPrefixMix(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(2), uint64(42), uint64(0xdd), uint64(0), uint64(0), uint64(17), uint64(300))
	f.Add(uint8(4), ^uint64(0), uint64(0xe7a5), uint64(9), uint64(1)<<32|5, uint64(12), uint64(7))
	f.Fuzz(func(t *testing.T, n uint8, k0, k1, k2, k3, b, c uint64) {
		lead := []uint64{k0, k1, k2, k3}[:n%5]
		got := NewPrefix(lead...).Mix2(b, c)
		if want := Mix(append(append([]uint64{}, lead...), b, c)...); got != want {
			t.Fatalf("NewPrefix(%#x).Mix2(%#x, %#x) = %#x, Mix = %#x", lead, b, c, got, want)
		}
	})
}
