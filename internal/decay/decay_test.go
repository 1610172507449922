package decay

import (
	"fmt"
	"testing"

	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
	"radiocast/internal/sched"
)

// runBroadcast runs the classic Decay broadcast on g from source 0 and
// returns (rounds until all nodes have the message, success).
func runBroadcast(g *graph.Graph, seed uint64, limit int64) (int64, bool) {
	nw := radio.New(g, radio.Config{})
	protos := make([]*Broadcast, g.N())
	for v := 0; v < g.N(); v++ {
		protos[v] = NewBroadcast(PlainSchedule(g.N()), v == 0, Message{Data: 7}, rng.New(seed, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	return nw.RunUntil(limit, func() bool {
		for _, p := range protos {
			if !p.Has() {
				return false
			}
		}
		return true
	})
}

func TestTransmitProbSchedule(t *testing.T) {
	if TransmitProb(0) != 0.5 || TransmitProb(1) != 0.25 || TransmitProb(3) != 0.0625 {
		t.Fatal("TransmitProb wrong")
	}
}

func TestBroadcastCompletesOnFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path-64", graph.Path(64)},
		{"star-64", graph.Star(64)},
		{"grid-8x8", graph.Grid(8, 8)},
		{"clique-32", graph.Complete(32)},
		{"gnp-100", graph.GNP(100, 0.08, 5)},
		{"clusterchain-8x8", graph.ClusterChain(8, 8)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := graph.Diameter(c.g)
			l := int64(sched.LogN(c.g.N()))
			// Generous budget: 40·(D·logn + log^2 n).
			limit := 40 * (int64(d)*l + l*l)
			rounds, ok := runBroadcast(c.g, 1, limit)
			if !ok {
				t.Fatalf("broadcast incomplete after %d rounds", limit)
			}
			t.Logf("%s: D=%d rounds=%d budget=%d", c.name, d, rounds, limit)
		})
	}
}

func TestBroadcastRoundsScaleWithD(t *testing.T) {
	// On paths, Decay rounds should grow roughly linearly in D·log n.
	r256, ok := runBroadcast(graph.Path(256), 2, 1<<20)
	if !ok {
		t.Fatal("path-256 incomplete")
	}
	r64, ok := runBroadcast(graph.Path(64), 2, 1<<20)
	if !ok {
		t.Fatal("path-64 incomplete")
	}
	ratio := float64(r256) / float64(r64)
	// D grows 4x; allow [2, 9] for noise.
	if ratio < 2 || ratio > 9 {
		t.Fatalf("rounds(path-256)/rounds(path-64) = %.2f, want ~4", ratio)
	}
}

func TestDecayProgressLemma(t *testing.T) {
	// Lemma 2.2: with >=1 participating neighbor, a listener receives
	// within one phase with probability >= 1/8. Empirically across
	// degrees: success rate must be well above 1/8 per phase; we check
	// the weaker per-Θ(log n)-phases bound to keep the test stable.
	for _, deg := range []int{1, 2, 4, 16, 64} {
		deg := deg
		t.Run(fmt.Sprintf("deg-%d", deg), func(t *testing.T) {
			succ := 0
			const trials = 400
			n := deg + 2
			l := sched.LogN(n)
			for trial := 0; trial < trials; trial++ {
				g := graph.Star(deg + 1) // center 0 listens, leaves transmit
				nw := radio.New(g, radio.Config{})
				probe := &radio.Silent{}
				nw.SetProtocol(0, probe)
				for v := 1; v <= deg; v++ {
					nw.SetProtocol(graph.NodeID(v),
						NewBroadcast(PlainSchedule(n), true, Message{}, rng.New(uint64(trial), uint64(v), uint64(deg))))
				}
				nw.Run(int64(l)) // exactly one phase
				if probe.Packets > 0 {
					succ++
				}
			}
			rate := float64(succ) / trials
			if rate < 0.125 {
				t.Fatalf("per-phase success rate %.3f < 1/8 at degree %d", rate, deg)
			}
			t.Logf("degree %d: per-phase success %.3f", deg, rate)
		})
	}
}

func TestMMVDeliversUnderNoise(t *testing.T) {
	// Lemma 3.2: the level-clocked Decay schedule delivers the message
	// even when every message-less node jams its prompted slots.
	gs := []*graph.Graph{graph.Path(48), graph.Grid(6, 8), graph.ClusterChain(6, 6)}
	for _, g := range gs {
		t.Run(g.Name(), func(t *testing.T) {
			levels := graph.BFS(g, 0)
			nw := radio.New(g, radio.Config{})
			protos := make([]*MMV, g.N())
			for v := 0; v < g.N(); v++ {
				protos[v] = NewMMV(g.N(), int(levels.Dist[v]), true, Message{Data: 3}, rng.New(9, uint64(v)))
				nw.SetProtocol(graph.NodeID(v), protos[v])
			}
			d := int64(levels.MaxDist)
			l := int64(sched.LogN(g.N()))
			limit := 60 * (d*l + l*l)
			rounds, ok := nw.RunUntil(limit, func() bool {
				for _, p := range protos {
					if !p.Has() {
						return false
					}
				}
				return true
			})
			if !ok {
				t.Fatalf("MMV broadcast incomplete after %d rounds", limit)
			}
			t.Logf("%s: D=%d rounds=%d", g.Name(), d, rounds)
		})
	}
}

func TestMMVSchedulePromptsOnlyOwnParity(t *testing.T) {
	// A node at level l may transmit only in rounds ≡ l+1 (mod 3).
	p := NewMMV(64, 4, true, Message{}, rng.New(1))
	for r := int64(0); r < 300; r++ {
		act := p.Act(r)
		if act.Transmit && (r-5)%3 != 0 {
			t.Fatalf("level-4 node transmitted in round %d", r)
		}
	}
}

func TestLayeringMatchesBFS(t *testing.T) {
	gs := []*graph.Graph{
		graph.Path(32),
		graph.Grid(6, 6),
		graph.GNP(64, 0.1, 3),
		graph.ClusterChain(5, 6),
	}
	for _, g := range gs {
		t.Run(g.Name(), func(t *testing.T) {
			want := graph.BFS(g, 0)
			d := int(want.MaxDist)
			phases := EpochPhases(g.N(), 3)
			nw := radio.New(g, radio.Config{})
			protos := make([]*Layering, g.N())
			for v := 0; v < g.N(); v++ {
				protos[v] = NewLayering(g.N(), v == 0, phases, rng.New(11, uint64(v)))
				nw.SetProtocol(graph.NodeID(v), protos[v])
			}
			nw.Run(LayeringRounds(g.N(), d, phases))
			for v := 0; v < g.N(); v++ {
				if got := protos[v].Level(); got != int(want.Dist[v]) {
					t.Fatalf("node %d: level %d, want %d", v, got, want.Dist[v])
				}
			}
		})
	}
}

func TestLayeringUnreachedReportsMinusOne(t *testing.T) {
	p := NewLayering(16, false, EpochPhases(16, 2), rng.New(1))
	if p.Level() != -1 {
		t.Fatal("unreached node must report level -1")
	}
}

func BenchmarkDecayBroadcastPath256(b *testing.B) {
	g := graph.Path(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := runBroadcast(g, uint64(i), 1<<21); !ok {
			b.Fatal("incomplete")
		}
	}
}
