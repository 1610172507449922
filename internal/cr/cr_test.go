package cr

import (
	"testing"

	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
	"radiocast/internal/sched"
)

func runCR(g *graph.Graph, seed uint64, limit int64) (int64, bool) {
	d := graph.Eccentricity(g, 0)
	p := NewParams(g.N(), d)
	nw := radio.New(g, radio.Config{})
	protos := make([]*decay.Broadcast, g.N())
	for v := 0; v < g.N(); v++ {
		protos[v] = decay.NewBroadcast(p, v == 0, decay.Message{Data: 5}, rng.New(seed, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	return nw.RunUntil(limit, func() bool {
		for _, pr := range protos {
			if !pr.Has() {
				return false
			}
		}
		return true
	})
}

func TestCRBroadcastCompletes(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(128),
		graph.Grid(8, 16),
		graph.Star(64),
		graph.ClusterChain(10, 6),
		graph.GNP(100, 0.07, 2),
	} {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			rounds, ok := runCR(g, 1, 1<<21)
			if !ok {
				t.Fatal("incomplete")
			}
			t.Logf("%s: rounds=%d", g.Name(), rounds)
		})
	}
}

func TestCRBeatsDecayOnSparseHighDiameter(t *testing.T) {
	// On a path (contention 1 per layer), short phases should make CR
	// clearly faster than classic Decay.
	g := graph.Path(256)
	crRounds, ok := runCR(g, 3, 1<<22)
	if !ok {
		t.Fatal("CR incomplete")
	}
	nw := radio.New(g, radio.Config{})
	protos := make([]*decay.Broadcast, g.N())
	for v := 0; v < g.N(); v++ {
		protos[v] = decay.NewBroadcast(decay.PlainSchedule(g.N()), v == 0, decay.Message{}, rng.New(3, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	decayRounds, ok := nw.RunUntil(1<<22, func() bool {
		for _, pr := range protos {
			if !pr.Has() {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("Decay incomplete")
	}
	if float64(crRounds) > 0.9*float64(decayRounds) {
		t.Fatalf("CR (%d) not faster than Decay (%d) on path-256", crRounds, decayRounds)
	}
	t.Logf("path-256: CR=%d Decay=%d", crRounds, decayRounds)
}

func TestParamsShape(t *testing.T) {
	p := NewParams(1024, 256)
	// n/D = 4 -> short phases of ceil(log 4)+2 = 4 rounds.
	if p.ShortLen != 4 {
		t.Fatalf("ShortLen = %d", p.ShortLen)
	}
	if p.FullLen != sched.LogN(1024) {
		t.Fatalf("FullLen = %d", p.FullLen)
	}
	// Slots sweep 0..ShortLen-1 then eventually 0..FullLen-1.
	seen := map[int]bool{}
	for r := int64(0); r < p.CycleLen(); r++ {
		seen[p.Slot(r)] = true
	}
	for i := 0; i < p.FullLen; i++ {
		if !seen[i] {
			t.Fatalf("slot %d never used in a cycle", i)
		}
	}
}

func TestParamsDegenerate(t *testing.T) {
	p := NewParams(16, 0) // d clamped to 1
	if p.ShortLen < 2 {
		t.Fatalf("ShortLen = %d", p.ShortLen)
	}
}

// TestDenseSlotSchedule pins that NewParams is the FastDecay schedule,
// not plain Decay: a full-length phase must appear once per cycle
// (slots past ShortLen only occur there).
func TestDenseSlotSchedule(t *testing.T) {
	p := NewParams(4096, 64) // ShortLen = log2(64)+2 = 8, FullLen = 12
	if p.FullLen <= p.ShortLen {
		t.Fatalf("degenerate schedule: full %d <= short %d", p.FullLen, p.ShortLen)
	}
	deep := 0
	for r := int64(0); r < p.CycleLen(); r++ {
		if p.Slot(r) >= p.ShortLen {
			deep++
		}
	}
	if deep != p.FullLen-p.ShortLen {
		t.Fatalf("deep slots per cycle = %d, want %d", deep, p.FullLen-p.ShortLen)
	}
}
