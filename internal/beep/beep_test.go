package beep

import (
	"testing"
	"testing/quick"

	"radiocast/internal/geo"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
)

func TestWaveLevelsMatchBFSOnFamilies(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(50),
		graph.Grid(7, 9),
		graph.Star(40),
		graph.Complete(20),
		graph.ClusterChain(8, 6),
		graph.GNP(120, 0.06, 4),
		graph.BinaryTree(63),
	}
	for _, g := range gs {
		t.Run(g.Name(), func(t *testing.T) {
			want := graph.BFS(g, 0)
			nw := radio.New(g, radio.Config{CollisionDetection: true})
			levels := RunLayering(nw, 0, int64(want.MaxDist)+1)
			for v := 0; v < g.N(); v++ {
				if levels[v] != int(want.Dist[v]) {
					t.Fatalf("node %d: level %d, want %d", v, levels[v], want.Dist[v])
				}
			}
			// Exactly D+1 rounds, deterministic.
			if nw.Stats().Rounds != int64(want.MaxDist)+1 {
				t.Fatalf("rounds = %d, want %d", nw.Stats().Rounds, want.MaxDist+1)
			}
		})
	}
}

func TestWaveIsDeterministic(t *testing.T) {
	g := graph.GNP(60, 0.08, 9)
	run := func() []int {
		nw := radio.New(g, radio.Config{CollisionDetection: true})
		return RunLayering(nw, 0, int64(g.N()))
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("collision wave nondeterministic")
		}
	}
}

func TestWaveRequiresCollisionDetection(t *testing.T) {
	// Without CD, a node whose neighbors all collide never triggers:
	// on a diamond source->a,b->sink, sink hears a+b colliding forever.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	g := b.Build()

	nw := radio.New(g, radio.Config{CollisionDetection: false})
	levels := RunLayering(nw, 0, 10)
	if levels[3] != -1 {
		t.Fatalf("sink got level %d without CD; collisions must not trigger", levels[3])
	}

	nwCD := radio.New(g, radio.Config{CollisionDetection: true})
	levelsCD := RunLayering(nwCD, 0, 10)
	if levelsCD[3] != 2 {
		t.Fatalf("sink level %d with CD, want 2", levelsCD[3])
	}
}

func TestWaveHorizonTooShortLeavesUnreached(t *testing.T) {
	g := graph.Path(10)
	nw := radio.New(g, radio.Config{CollisionDetection: true})
	levels := RunLayering(nw, 0, 4)
	if levels[3] != 3 {
		t.Fatalf("level[3] = %d", levels[3])
	}
	if levels[9] != -1 {
		t.Fatalf("node beyond horizon has level %d, want -1", levels[9])
	}
}

func TestWavePropertyRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		g := geo.UnitDisk(70, geo.ConnectivityRadius(70), seed)
		want := graph.BFS(g, 0)
		nw := radio.New(g, radio.Config{CollisionDetection: true})
		levels := RunLayering(nw, 0, int64(want.MaxDist)+1)
		for v := 0; v < g.N(); v++ {
			if levels[v] != int(want.Dist[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWaveGrid64(b *testing.B) {
	g := graph.Grid(64, 64)
	d := int64(126)
	for i := 0; i < b.N; i++ {
		nw := radio.New(g, radio.Config{CollisionDetection: true})
		RunLayering(nw, 0, d+1)
	}
}
