package radio_test

import (
	"fmt"
	"math/bits"
	"slices"
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
//   - stamp = the round of promotion, -1 at the source and uninformed;
//
// and both summaries from their words (summaryCheck), after the hears
// of a round as well as after its promotion. n = 4097 spans two
// summary words, the second holding one bit; it runs fewer rounds.
func TestSpreadMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130, 200, 4097} {
		for _, p := range []float64{0.02, 0.1, 0.5} {
			rounds := 4*int64(n) + 8
			if n > 1000 {
				p /= 100
				rounds = 24
			}
			for _, withKeep := range []bool{false, true} {
				name := fmt.Sprintf("n%d-p%g-keep%t", n, p, withKeep)
				t.Run(name, func(t *testing.T) {
					seed := uint64(n)*1000 + uint64(p*100)
					checkSpread(t, graph.GNP(n, p, seed), seed, withKeep, rounds)
				})
			}
		}
	}
}

func checkSpread(t *testing.T, g *graph.Graph, seed uint64, withKeep bool, rounds int64) {
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
	for round := int64(0); round < rounds; round++ {
		// Hear a random subset of nodes, informed ones included: an
		// informed node's Hear is a no-op, the kept listener's case.
		heard := make([]bool, n)
		for v := 0; v < n; v++ {
			if r.Intn(8) == 0 {
				s.Hear(graph.NodeID(v))
				heard[v] = true
			}
		}
		summaryCheck(t, &s, round, false)
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
	summaryCheck(t, s, round, true)
	// No bit at or past n in any word: the engine reads whole words.
	for _, w := range [][]uint64{s.InformedWords(), s.FrontierWords(), s.ListenWords(round)} {
		if n%64 != 0 && w[len(w)-1]>>(uint(n)%64) != 0 {
			t.Fatalf("after round %d: bits set past n = %d", round, n)
		}
	}
}

func wordBit(words []uint64, v int) bool { return words[v>>6]>>(uint(v)&63)&1 != 0 }

// summaryCheck recomputes both summaries from their words: bit wi of a
// summary is set iff word wi is non-zero, and no summary bit lies past
// the last word. After a round's promotion (promoted) the newly set is
// empty. It also checks NextFrontierWord against a linear scan over
// every word-aligned range [lo, end), which starts and ends inside
// summary words as well as on their edges.
func summaryCheck(t *testing.T, s *radio.Spread, round int64, promoted bool) {
	t.Helper()
	frontier, frontierSum, newly, newlySum := s.SummaryWords()
	for _, c := range []struct {
		what       string
		words, sum []uint64
	}{{"frontier", frontier, frontierSum}, {"newly", newly, newlySum}} {
		if len(c.sum) != (len(c.words)+63)/64 {
			t.Fatalf("round %d: %s summary has %d words for %d words", round, c.what, len(c.sum), len(c.words))
		}
		for wi := 0; wi < len(c.sum)*64; wi++ {
			want := wi < len(c.words) && c.words[wi] != 0
			if got := wordBit(c.sum, wi); got != want {
				t.Fatalf("round %d: %s summary bit %d = %v, want %v", round, c.what, wi, got, want)
			}
		}
	}
	if promoted {
		for wi, w := range newly {
			if w != 0 {
				t.Fatalf("round %d: newly word %d = %#x after EndRound", round, wi, w)
			}
		}
	}
	nw := len(frontier)
	var got, want []int
	for lo := 0; lo <= nw; lo++ {
		for end := lo; end <= nw; end++ {
			got, want = got[:0], want[:0]
			for wi := lo; wi < end; wi++ {
				if frontier[wi] != 0 {
					want = append(want, wi)
				}
			}
			for wi := s.NextFrontierWord(lo, end); wi < end; wi = s.NextFrontierWord(wi+1, end) {
				got = append(got, wi)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: frontier words in [%d, %d) iterated %v, want %v", round, lo, end, got, want)
			}
		}
	}
}
