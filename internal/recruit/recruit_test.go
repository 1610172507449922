package recruit

import (
	"fmt"
	"testing"

	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// bipartite builds a random bipartite graph: nodes 0..nRed-1 are red,
// nRed..nRed+nBlue-1 are blue. Every blue gets at least one red
// neighbor; extra edges appear with probability p.
func bipartite(nRed, nBlue int, p float64, seed uint64) *graph.Graph {
	r := rng.New(seed, 0xb1)
	b := graph.NewBuilder(nRed + nBlue)
	for u := 0; u < nBlue; u++ {
		blue := graph.NodeID(nRed + u)
		b.AddEdge(graph.NodeID(r.Intn(nRed)), blue)
		for v := 0; v < nRed; v++ {
			if r.Float64() < p {
				b.AddEdge(graph.NodeID(v), blue)
			}
		}
	}
	return b.Build()
}

// runRecruiting executes one full recruiting run and returns the
// machines for inspection.
func runRecruiting(t *testing.T, g *graph.Graph, nRed int, params Params, seed uint64) ([]*Red, []*Blue) {
	t.Helper()
	nw := radio.New(g, radio.Config{})
	reds := make([]*Red, nRed)
	blues := make([]*Blue, g.N()-nRed)
	for v := 0; v < nRed; v++ {
		reds[v] = NewRed(params, graph.NodeID(v), rng.New(seed, 0xed, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), reds[v])
	}
	for u := nRed; u < g.N(); u++ {
		blues[u-nRed] = NewBlue(params, graph.NodeID(u), rng.New(seed, 0xb1e, uint64(u)))
		nw.SetProtocol(graph.NodeID(u), blues[u-nRed])
	}
	nw.Run(params.Rounds())
	return reds, blues
}

// verifyProperties checks Lemma 2.3 (a), (b), (c) exactly.
func verifyProperties(t *testing.T, g *graph.Graph, nRed int, reds []*Red, blues []*Blue) {
	t.Helper()
	children := make(map[radio.NodeID][]radio.NodeID)
	for i, b := range blues {
		blueID := graph.NodeID(nRed + i)
		if !b.Recruited() {
			t.Fatalf("property (a) violated: blue %d not recruited", blueID)
		}
		if !g.HasEdge(blueID, b.Parent()) {
			t.Fatalf("blue %d recruited by non-neighbor %d", blueID, b.Parent())
		}
		children[b.Parent()] = append(children[b.Parent()], blueID)
	}
	for v, red := range reds {
		got := red.Class()
		var want Class
		switch len(children[graph.NodeID(v)]) {
		case 0:
			want = ClassZero
		case 1:
			want = ClassOne
		default:
			want = ClassMany
		}
		if got != want {
			t.Fatalf("property (b) violated: red %d class %v, want %v (%d children)",
				v, got, want, len(children[graph.NodeID(v)]))
		}
		if want == ClassOne && red.OnlyChild() != children[graph.NodeID(v)][0] {
			t.Fatalf("red %d only-child %d, want %d", v, red.OnlyChild(), children[graph.NodeID(v)][0])
		}
	}
	for i, b := range blues {
		blueID := graph.NodeID(nRed + i)
		actual := len(children[b.Parent()])
		var want Class
		if actual == 1 {
			want = ClassOne
		} else {
			want = ClassMany
		}
		if b.ParentClass() != want {
			t.Fatalf("property (c) violated: blue %d sees parent class %v, parent has %d children",
				blueID, b.ParentClass(), actual)
		}
	}
}

func TestRecruitingOnRandomBipartite(t *testing.T) {
	cases := []struct {
		nRed, nBlue int
		p           float64
	}{
		{5, 5, 0.2},
		{10, 20, 0.15},
		{20, 10, 0.1},
		{30, 30, 0.05},
		{8, 40, 0.3},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("r%d-b%d", c.nRed, c.nBlue), func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				g := bipartite(c.nRed, c.nBlue, c.p, seed)
				params := DefaultParams(c.nRed+c.nBlue, 2)
				reds, blues := runRecruiting(t, g, c.nRed, params, seed)
				verifyProperties(t, g, c.nRed, reds, blues)
			}
		})
	}
}

func TestRecruitingSingleRedManyBlues(t *testing.T) {
	// One red adjacent to many blues: red must classify MANY and all
	// blues must know it.
	const nBlue = 25
	g := bipartite(1, nBlue, 1.0, 7)
	params := DefaultParams(nBlue+1, 2)
	reds, blues := runRecruiting(t, g, 1, params, 7)
	verifyProperties(t, g, 1, reds, blues)
	if reds[0].Class() != ClassMany {
		t.Fatalf("red class %v, want many", reds[0].Class())
	}
	for _, b := range blues {
		if b.ParentClass() != ClassMany {
			t.Fatal("blue does not know parent recruited many")
		}
	}
}

func TestRecruitingPerfectMatching(t *testing.T) {
	// Disjoint red-blue pairs: every red must classify ONE and every
	// blue must know it is the only child.
	const pairs = 12
	b := graph.NewBuilder(2 * pairs)
	for i := 0; i < pairs; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(pairs+i))
	}
	g := b.Build()
	params := DefaultParams(2*pairs, 2)
	reds, blues := runRecruiting(t, g, pairs, params, 3)
	verifyProperties(t, g, pairs, reds, blues)
	for i, r := range reds {
		if r.Class() != ClassOne {
			t.Fatalf("pair red %d class %v, want one", i, r.Class())
		}
	}
	for i, bl := range blues {
		if bl.ParentClass() != ClassOne {
			t.Fatalf("pair blue %d parent class %v, want one", i, bl.ParentClass())
		}
	}
}

func TestRecruitingIsolatedRed(t *testing.T) {
	// A red with no blue neighbors must classify ZERO.
	b := graph.NewBuilder(3)
	b.AddEdge(1, 2) // red 1 - blue 2; red 0 isolated
	g := b.Build()
	// n=3 gives L=2: the schedule is so short that the w.h.p. guarantee
	// needs a larger Θ-constant, as the paper's asymptotics only bite
	// for non-degenerate n.
	params := DefaultParams(3, 8)
	reds, blues := runRecruiting(t, g, 2, params, 5)
	if reds[0].Class() != ClassZero {
		t.Fatalf("isolated red class %v", reds[0].Class())
	}
	if reds[1].Class() != ClassOne || !blues[0].Recruited() {
		t.Fatal("pair not formed")
	}
}

func TestParamsSchedule(t *testing.T) {
	p := DefaultParams(256, 2)
	if p.L != 8 {
		t.Fatalf("L = %d", p.L)
	}
	if p.Iterations() != 2*8*8 {
		t.Fatalf("iterations = %d", p.Iterations())
	}
	wantRounds := int64(p.Iterations())*int64(p.L+2) + int64(p.Iterations())
	if p.Rounds() != wantRounds {
		t.Fatalf("Rounds = %d, want %d", p.Rounds(), wantRounds)
	}
	// Schedule is Θ(log^3 n): for n=256, well under (log n)^3 * 32.
	if p.Rounds() > 32*8*8*8 {
		t.Fatalf("rounds %d exceed Θ(log^3 n) envelope", p.Rounds())
	}
}

func TestLocateRoundTrip(t *testing.T) {
	p := DefaultParams(64, 1)
	seenReplay := false
	for off := int64(0); off < p.Rounds(); off++ {
		pos := p.locate(off)
		if pos.replay {
			seenReplay = true
			if pos.iter < 0 || pos.iter >= p.Iterations() {
				t.Fatalf("replay iter %d out of range", pos.iter)
			}
		} else {
			if seenReplay {
				t.Fatal("iteration phase after replay phase")
			}
			if pos.slot < 0 || pos.slot > p.L+1 {
				t.Fatalf("slot %d out of range", pos.slot)
			}
		}
	}
	if !seenReplay {
		t.Fatal("no replay phase")
	}
}

func TestOfferProbSweep(t *testing.T) {
	p := DefaultParams(64, 1)
	if p.offerProb(0) != 0.5 {
		t.Fatalf("first density %f", p.offerProb(0))
	}
	last := p.offerProb(p.Iterations() - 1)
	want := 1 / float64(int64(1)<<uint(p.L))
	if last != want {
		t.Fatalf("last density %g, want %g", last, want)
	}
}

func BenchmarkRecruiting30x30(b *testing.B) {
	g := bipartite(30, 30, 0.1, 1)
	params := DefaultParams(60, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := radio.New(g, radio.Config{})
		for v := 0; v < 30; v++ {
			nw.SetProtocol(graph.NodeID(v), NewRed(params, graph.NodeID(v), rng.New(uint64(i), uint64(v))))
		}
		for u := 30; u < 60; u++ {
			nw.SetProtocol(graph.NodeID(u), NewBlue(params, graph.NodeID(u), rng.New(uint64(i), 999, uint64(u))))
		}
		nw.Run(params.Rounds())
	}
}
