package gstdist

import (
	"testing"

	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// runConstruction executes the full distributed construction and
// returns per-node results plus the elapsed rounds.
func runConstruction(t *testing.T, g *graph.Graph, cfg Config, cd bool, seed uint64) ([]Result, int64) {
	t.Helper()
	nw := radio.New(g, radio.Config{CollisionDetection: cd})
	protos := make([]*Protocol, g.N())
	var preset []int32
	if cfg.Mode == LayerPreset {
		bfs := graph.BFS(g, 0)
		preset = bfs.Dist
	}
	for v := 0; v < g.N(); v++ {
		lvl := int32(0)
		if preset != nil {
			lvl = preset[v]
		}
		protos[v] = New(cfg, graph.NodeID(v), v == 0, lvl, rng.New(seed, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	nw.Run(cfg.TotalRounds())
	results := make([]Result, g.N())
	for v := range protos {
		results[v] = protos[v].Result()
	}
	return results, nw.Stats().Rounds
}

// toTree converts distributed results into a gst.Tree for validation.
func toTree(g *graph.Graph, results []Result, roots ...graph.NodeID) *gst.Tree {
	tree := gst.NewTree(g, roots)
	for v, res := range results {
		tree.Level[v] = res.Level
		tree.Parent[v] = res.Parent
		tree.Rank[v] = res.Rank
	}
	return tree
}

// verifyConstruction validates the full GST contract of the
// distributed output.
func verifyConstruction(t *testing.T, g *graph.Graph, results []Result) {
	t.Helper()
	bfs := graph.BFS(g, 0)
	for v := 0; v < g.N(); v++ {
		if results[v].Level != bfs.Dist[v] {
			t.Fatalf("node %d level %d, want %d", v, results[v].Level, bfs.Dist[v])
		}
		if v != 0 && results[v].Parent < 0 {
			t.Fatalf("node %d has no parent", v)
		}
	}
	tree := toTree(g, results, 0)
	if err := tree.Validate(); err != nil {
		t.Fatalf("distributed GST invalid: %v", err)
	}
	// Knowledge checks: each node's believed parent rank must match the
	// parent's actual rank, and SameRankChild must reflect the tree.
	sameRank := gst.Flatten(tree).SameRankChild
	for v := 0; v < g.N(); v++ {
		if p := results[v].Parent; p >= 0 {
			if results[v].ParentRank != results[p].Rank {
				t.Fatalf("node %d believes parent rank %d, parent has %d",
					v, results[v].ParentRank, results[p].Rank)
			}
		}
		if want := sameRank[v]; results[v].SameRankChild != want {
			t.Fatalf("node %d same-rank-child belief %v, want %v",
				v, results[v].SameRankChild, want)
		}
	}
}

func constructionCases() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(12),
		graph.Star(16),
		graph.Grid(4, 5),
		graph.Complete(10),
		graph.BinaryTree(15),
		graph.GNP(24, 0.2, 5),
		graph.ClusterChain(3, 5),
	}
}

func TestConstructionWithCDWave(t *testing.T) {
	for _, g := range constructionCases() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			d := graph.Eccentricity(g, 0)
			cfg := DefaultConfig(g.N(), d, 2, LayerCD, false)
			results, rounds := runConstruction(t, g, cfg, true, 1)
			verifyConstruction(t, g, results)
			if rounds != cfg.TotalRounds() {
				t.Fatalf("rounds %d != schedule %d", rounds, cfg.TotalRounds())
			}
		})
	}
}

func TestConstructionWithDecayLayeringNoCD(t *testing.T) {
	// Theorem 2.1 works without collision detection.
	for _, g := range []*graph.Graph{graph.Path(10), graph.Grid(3, 5), graph.GNP(20, 0.25, 9)} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			d := graph.Eccentricity(g, 0)
			cfg := DefaultConfig(g.N(), d, 2, LayerDecay, false)
			results, _ := runConstruction(t, g, cfg, false, 3)
			verifyConstruction(t, g, results)
		})
	}
}

func TestConstructionPresetLevels(t *testing.T) {
	g := graph.Grid(4, 4)
	d := graph.Eccentricity(g, 0)
	cfg := DefaultConfig(g.N(), d, 2, LayerPreset, false)
	results, _ := runConstruction(t, g, cfg, false, 4)
	verifyConstruction(t, g, results)
}

func TestConstructionPipelined(t *testing.T) {
	for _, g := range constructionCases() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			d := graph.Eccentricity(g, 0)
			cfg := DefaultConfig(g.N(), d, 2, LayerCD, false)
			cfg.PipelinedBoundaries = true
			results, rounds := runConstruction(t, g, cfg, true, 1)
			verifyConstruction(t, g, results)
			if rounds != cfg.TotalRounds() {
				t.Fatalf("rounds %d != schedule %d", rounds, cfg.TotalRounds())
			}
			// Strict win exactly when 3D + 2·MaxRank - 4 < D·MaxRank; at
			// D >= 3 the pipelined schedule is never longer, and from
			// D >= 4 (or deeper rank stacks) it is strictly shorter.
			seq := DefaultConfig(g.N(), d, 2, LayerCD, false)
			if d >= 3 && cfg.BoundariesRounds() > seq.BoundariesRounds() {
				t.Fatalf("pipelined segment B %d rounds, sequential %d — regression at D=%d",
					cfg.BoundariesRounds(), seq.BoundariesRounds(), d)
			}
			if d >= 4 && cfg.BoundariesRounds() >= seq.BoundariesRounds() {
				t.Fatalf("pipelined segment B %d rounds, sequential %d — no strict speedup at D=%d",
					cfg.BoundariesRounds(), seq.BoundariesRounds(), d)
			}
		})
	}
}

func TestConstructionPipelinedMultiSeed(t *testing.T) {
	g := graph.GNP(24, 0.18, 8)
	d := graph.Eccentricity(g, 0)
	cfg := DefaultConfig(g.N(), d, 2, LayerCD, false)
	cfg.PipelinedBoundaries = true
	for seed := uint64(0); seed < 4; seed++ {
		results, _ := runConstruction(t, g, cfg, true, seed)
		verifyConstruction(t, g, results)
	}
}

func TestPipelinedVirtualDistances(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(10), graph.Grid(3, 4), graph.BinaryTree(15)} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			d := graph.Eccentricity(g, 0)
			cfg := DefaultConfig(g.N(), d, 2, LayerCD, true)
			cfg.PipelinedBoundaries = true
			results, _ := runConstruction(t, g, cfg, true, 6)
			verifyConstruction(t, g, results)
			tree := toTree(g, results, 0)
			want := gst.Flatten(tree).Vdist
			for v := 0; v < g.N(); v++ {
				if results[v].Vdist != want[v] {
					t.Fatalf("node %d vdist %d, want %d", v, results[v].Vdist, want[v])
				}
			}
		})
	}
}

func TestConstructionMultiSeedStability(t *testing.T) {
	g := graph.GNP(24, 0.18, 8)
	d := graph.Eccentricity(g, 0)
	cfg := DefaultConfig(g.N(), d, 2, LayerCD, false)
	for seed := uint64(0); seed < 4; seed++ {
		results, _ := runConstruction(t, g, cfg, true, seed)
		verifyConstruction(t, g, results)
	}
}

func TestVirtualDistancesMatchCentralized(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(10), graph.Grid(3, 4), graph.BinaryTree(15), graph.GNP(18, 0.3, 2)} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			d := graph.Eccentricity(g, 0)
			cfg := DefaultConfig(g.N(), d, 2, LayerCD, true)
			results, _ := runConstruction(t, g, cfg, true, 6)
			verifyConstruction(t, g, results)
			// Reconstruct the tree and compare vdist to the exact BFS
			// over G'.
			tree := toTree(g, results, 0)
			want := gst.Flatten(tree).Vdist
			for v := 0; v < g.N(); v++ {
				if results[v].Vdist != want[v] {
					t.Fatalf("node %d vdist %d, want %d", v, results[v].Vdist, want[v])
				}
			}
		})
	}
}

func TestScheduleShape(t *testing.T) {
	cfg := DefaultConfig(256, 20, 1, LayerCD, true)
	if cfg.LayerRounds() != 21 {
		t.Fatalf("layer rounds %d", cfg.LayerRounds())
	}
	if cfg.BoundariesRounds() != 20*cfg.Assign.BoundaryRounds() {
		t.Fatal("boundary rounds wrong")
	}
	// Locate round-trips across segment edges.
	edges := []int64{0, cfg.LayerRounds() - 1, cfg.LayerRounds(),
		cfg.LayerRounds() + cfg.BoundariesRounds() - 1,
		cfg.LayerRounds() + cfg.BoundariesRounds(),
		cfg.TotalRounds() - 1, cfg.TotalRounds()}
	want := []Segment{SegLayer, SegLayer, SegBoundary, SegBoundary, SegVdist, SegVdist, SegDone}
	for i, r := range edges {
		if got := cfg.Locator().Locate(r).Seg; got != want[i] {
			t.Fatalf("Locate(%d).Seg = %d, want %d", r, got, want[i])
		}
	}
}

func BenchmarkConstructionGrid4x5(b *testing.B) {
	g := graph.Grid(4, 5)
	d := graph.Eccentricity(g, 0)
	cfg := DefaultConfig(g.N(), d, 2, LayerCD, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := radio.New(g, radio.Config{CollisionDetection: true})
		for v := 0; v < g.N(); v++ {
			nw.SetProtocol(graph.NodeID(v), New(cfg, graph.NodeID(v), v == 0, 0, rng.New(uint64(i), uint64(v))))
		}
		nw.Run(cfg.TotalRounds())
	}
}
