package beep

import (
	"testing"
	"testing/quick"

	"radiocast/internal/geo"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
)

// runEstimate executes the doubling estimator and returns per-node
// estimators after completion.
func runEstimate(t *testing.T, g *graph.Graph) []*Estimate {
	t.Helper()
	nw := radio.New(g, radio.Config{CollisionDetection: true})
	protos := make([]*Estimate, g.N())
	for v := 0; v < g.N(); v++ {
		protos[v] = NewEstimate(v == 0)
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	nw.Run(EstimateRounds(g.N()))
	return protos
}

func TestEstimateOnFamilies(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(2),
		graph.Path(17),
		graph.Path(64),
		graph.Cycle(30),
		graph.Star(25),
		graph.Grid(5, 9),
		graph.Complete(12),
		graph.ClusterChain(7, 5),
		graph.BinaryTree(31),
		graph.GNP(80, 0.07, 3),
	}
	for _, g := range gs {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			ecc := int64(graph.Eccentricity(g, 0))
			bfs := graph.BFS(g, 0)
			protos := runEstimate(t, g)
			for v, p := range protos {
				if !p.Done() {
					t.Fatalf("node %d never finished", v)
				}
				if p.Diameter() != protos[0].Diameter() {
					t.Fatalf("node %d disagrees on D̂: %d vs %d", v, p.Diameter(), protos[0].Diameter())
				}
				if p.Level() != int64(bfs.Dist[v]) {
					t.Fatalf("node %d level %d, want %d", v, p.Level(), bfs.Dist[v])
				}
			}
			dhat := protos[0].Diameter()
			// 2-approximation: ecc <= D̂ <= 2·max(ecc,1), with equality
			// on the right when ecc is an exact power of two.
			if dhat < ecc {
				t.Fatalf("D̂ = %d underestimates ecc = %d", dhat, ecc)
			}
			lo := ecc
			if lo < 1 {
				lo = 1
			}
			if dhat > 2*lo {
				t.Fatalf("D̂ = %d is not a 2-approx of ecc = %d", dhat, ecc)
			}
			t.Logf("%s: ecc=%d D̂=%d rounds<=%d", g.Name(), ecc, dhat, EstimateRounds(g.N()))
		})
	}
}

func TestEstimateIsDeterministic(t *testing.T) {
	g := graph.GNP(50, 0.1, 9)
	a := runEstimate(t, g)
	b := runEstimate(t, g)
	for v := range a {
		if a[v].Diameter() != b[v].Diameter() || a[v].Level() != b[v].Level() {
			t.Fatal("estimator nondeterministic")
		}
	}
}

func TestEstimateRoundsLinearInD(t *testing.T) {
	// O(D): the schedule for max eccentricity m is <= c·m + O(log m).
	if EstimateRounds(64) > 3*(2*128+1)+3*16 {
		t.Fatalf("EstimateRounds(64) = %d, not O(D)", EstimateRounds(64))
	}
	if EstimateRounds(1) >= EstimateRounds(100) {
		t.Fatal("rounds not increasing")
	}
}

func TestEstimatePropertyRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		g := geo.UnitDisk(40, geo.ConnectivityRadius(40), seed)
		ecc := int64(graph.Eccentricity(g, 0))
		nw := radio.New(g, radio.Config{CollisionDetection: true})
		protos := make([]*Estimate, g.N())
		for v := 0; v < g.N(); v++ {
			protos[v] = NewEstimate(v == 0)
			nw.SetProtocol(graph.NodeID(v), protos[v])
		}
		nw.Run(EstimateRounds(g.N()))
		lo := ecc
		if lo < 1 {
			lo = 1
		}
		for _, p := range protos {
			if !p.Done() || p.Diameter() < ecc || p.Diameter() > 2*lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockGeometry(t *testing.T) {
	if blockStart(0) != 0 || blockStart(1) != 6 {
		t.Fatalf("blockStart wrong: %d %d", blockStart(0), blockStart(1))
	}
	// locate round-trips block boundaries.
	for j := 0; j < 6; j++ {
		gotJ, sub, off := locate(blockStart(j))
		if gotJ != j || sub != 0 || off != 0 {
			t.Fatalf("locate(blockStart(%d)) = (%d,%d,%d)", j, gotJ, sub, off)
		}
	}
}
