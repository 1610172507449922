package radio_test

import (
	"fmt"
	"math/bits"
	"testing"

	"radiocast/internal/bitvec"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// TestSpreadMatchesBruteForce drives radio.Spread through random
// hear/promote orders on random graphs, with and without kept
// listeners, and after every step recomputes each derived set from the
// informed set alone:
//
//   - frontier = the informed nodes with an uninformed neighbour;
//   - listen = uninformed ∪ kept;
//   - count = popcount(informed), Done = (count == n);
//   - stamp = the round of promotion, -1 at the source and uninformed.
func TestSpreadMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130, 200} {
		for _, p := range []float64{0.02, 0.1, 0.5} {
			for _, withKeep := range []bool{false, true} {
				name := fmt.Sprintf("n%d-p%g-keep%t", n, p, withKeep)
				t.Run(name, func(t *testing.T) {
					seed := uint64(n)*1000 + uint64(p*100)
					checkSpread(t, graph.GNP(n, p, seed), seed, withKeep)
				})
			}
		}
	}
}

func checkSpread(t *testing.T, g *graph.Graph, seed uint64, withKeep bool) {
	t.Helper()
	n := g.N()
	r := rng.New(seed, 0x5b)
	keep := bitvec.Vec{}
	if withKeep {
		keep = bitvec.New(n)
		for v := 0; v < n; v++ {
			if r.Intn(3) == 0 {
				keep.Set(v)
			}
		}
	}
	src := graph.NodeID(r.Intn(n))
	s := radio.NewSpread(g, src, keep)
	informed := make([]bool, n)
	stamp := make([]int64, n)
	for v := range stamp {
		stamp[v] = -1
	}
	informed[src] = true
	spreadCheck(t, g, &s, keep, informed, stamp, -1)
	for round := int64(0); round < 4*int64(n)+8; round++ {
		// Hear a random subset of nodes, informed ones included: an
		// informed node's Hear is a no-op, the kept listener's case.
		heard := make([]bool, n)
		for v := 0; v < n; v++ {
			if r.Intn(8) == 0 {
				s.Hear(graph.NodeID(v))
				heard[v] = true
			}
		}
		s.EndRound(round)
		for v := 0; v < n; v++ {
			if heard[v] && !informed[v] {
				informed[v] = true
				stamp[v] = round
			}
		}
		spreadCheck(t, g, &s, keep, informed, stamp, round)
	}
}

func spreadCheck(t *testing.T, g *graph.Graph, s *radio.Spread, keep bitvec.Vec, informed []bool, stamp []int64, round int64) {
	t.Helper()
	n := g.N()
	count := 0
	for v := 0; v < n; v++ {
		id := graph.NodeID(v)
		if informed[v] {
			count++
		}
		front := false
		if informed[v] {
			for _, u := range g.Neighbors(id) {
				front = front || !informed[u]
			}
		}
		kept := keep.Len() > 0 && keep.Get(v)
		for _, c := range []struct {
			what      string
			got, want bool
		}{
			{"informed", s.Informed(id), informed[v]},
			{"informed word", wordBit(s.InformedWords(), v), informed[v]},
			{"frontier", wordBit(s.FrontierWords(), v), front},
			{"listen", wordBit(s.ListenWords(round), v), !informed[v] || kept},
		} {
			if c.got != c.want {
				t.Fatalf("after round %d: node %d %s = %v, want %v", round, v, c.what, c.got, c.want)
			}
		}
		if got := s.RecvRound(id); got != stamp[v] {
			t.Fatalf("after round %d: node %d stamp = %d, want %d", round, v, got, stamp[v])
		}
	}
	pop := 0
	for _, w := range s.InformedWords() {
		pop += bits.OnesCount64(w)
	}
	if s.InformedCount() != count || pop != count {
		t.Fatalf("after round %d: count %d, popcount %d, want %d", round, s.InformedCount(), pop, count)
	}
	if s.Done() != (count == n) {
		t.Fatalf("after round %d: Done = %v with %d of %d informed", round, s.Done(), count, n)
	}
	// No bit at or past n in any word: the engine reads whole words.
	for _, w := range [][]uint64{s.InformedWords(), s.FrontierWords(), s.ListenWords(round)} {
		if n%64 != 0 && w[len(w)-1]>>(uint(n)%64) != 0 {
			t.Fatalf("after round %d: bits set past n = %d", round, n)
		}
	}
}

func wordBit(words []uint64, v int) bool { return words[v>>6]>>(uint(v)&63)&1 != 0 }
