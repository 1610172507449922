package mmv

import (
	"fmt"
	"testing"

	"radiocast/internal/bitvec"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/radio"
	"radiocast/internal/rlnc"
	"radiocast/internal/rng"
	"radiocast/internal/sched"
)

// runSingle broadcasts one message atop a centralized GST and returns
// (rounds, completed).
func runSingle(g *graph.Graph, noising bool, seed uint64, limit int64) (int64, bool) {
	tree := gst.Construct(g, 0)
	f := gst.Flatten(tree)
	s := NewSchedule(g.N())
	nw := radio.New(g, radio.Config{})
	contents := make([]*SingleMessage, g.N())
	for v := 0; v < g.N(); v++ {
		contents[v] = NewSingleMessage(v == 0, decay.Message{Data: 99})
		nw.SetProtocol(graph.NodeID(v),
			New(s, f, graph.NodeID(v), contents[v], noising, rng.New(seed, uint64(v))))
	}
	return nw.RunUntil(limit, func() bool {
		for _, c := range contents {
			if !c.Done() {
				return false
			}
		}
		return true
	})
}

func broadcastFamilies() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(64),
		graph.Grid(8, 8),
		graph.Star(48),
		graph.BinaryTree(63),
		graph.ClusterChain(8, 6),
		graph.GNP(96, 0.06, 7),
	}
}

func TestSingleMessageBroadcast(t *testing.T) {
	for _, g := range broadcastFamilies() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			d := int64(graph.Eccentricity(g, 0))
			l := int64(sched.LogN(g.N()))
			limit := 200 * (d + l*l)
			rounds, ok := runSingle(g, false, 1, limit)
			if !ok {
				t.Fatalf("incomplete after %d rounds", limit)
			}
			t.Logf("%s: D=%d rounds=%d", g.Name(), d, rounds)
		})
	}
}

func TestSingleMessageBroadcastUnderNoise(t *testing.T) {
	// Lemma 3.3: the schedule is MMV — message-less nodes jam their
	// scheduled slots and the broadcast still completes fast.
	for _, g := range broadcastFamilies() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			d := int64(graph.Eccentricity(g, 0))
			l := int64(sched.LogN(g.N()))
			limit := 400 * (d + l*l)
			rounds, ok := runSingle(g, true, 2, limit)
			if !ok {
				t.Fatalf("MMV broadcast incomplete after %d rounds", limit)
			}
			t.Logf("%s (noising): D=%d rounds=%d", g.Name(), d, rounds)
		})
	}
}

// fastCollisionTracer asserts Lemma 3.5: a node whose parent shares
// its rank never observes a collision in its parent's fast slot.
type fastCollisionTracer struct {
	s          Schedule
	f          *gst.Flat
	violations int
}

func (tr *fastCollisionTracer) OnRound(int64, []radio.NodeID) {}
func (tr *fastCollisionTracer) OnDeliver(t int64, to radio.NodeID, out radio.Outcome) {
	if !out.Collision || t%2 != 0 {
		return
	}
	f := tr.f
	if f.Parent[to] >= 0 && f.ParentRank[to] == f.Rank[to] && tr.s.FastSlot(t, f.Level[to]-1, f.Rank[to]) {
		tr.violations++
	}
}

func TestFastWavesCollisionFree(t *testing.T) {
	// Lemma 3.5 under full noise, with collision detection on so the
	// tracer can see collisions.
	for _, g := range broadcastFamilies() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			tree := gst.Construct(g, 0)
			f := gst.Flatten(tree)
			s := NewSchedule(g.N())
			tr := &fastCollisionTracer{s: s, f: f}
			nw := radio.New(g, radio.Config{CollisionDetection: true, Tracer: tr})
			for v := 0; v < g.N(); v++ {
				nw.SetProtocol(graph.NodeID(v),
					New(s, f, graph.NodeID(v), NewSingleMessage(v == 0, decay.Message{}), true, rng.New(5, uint64(v))))
			}
			nw.Run(4000)
			if tr.violations != 0 {
				t.Fatalf("%d fast-wave collisions at stretch children", tr.violations)
			}
		})
	}
}

// runRLNC broadcasts k messages atop a centralized GST (Theorem 1.2).
func runRLNC(t *testing.T, g *graph.Graph, k int, seed uint64, limit int64) (int64, bool) {
	t.Helper()
	const l = 32
	r := rng.New(seed, 0xabc)
	msgs := make([]rlnc.Message, k)
	for i := range msgs {
		msgs[i] = bitvec.RandomVec(l, r.Uint64)
	}
	tree := gst.Construct(g, 0)
	f := gst.Flatten(tree)
	s := NewSchedule(g.N())
	nw := radio.New(g, radio.Config{})
	contents := make([]*RLNC, g.N())
	for v := 0; v < g.N(); v++ {
		var buf *rlnc.Buffer
		if v == 0 {
			buf = rlnc.NewSourceBuffer(0, msgs, l)
		} else {
			buf = rlnc.NewBuffer(0, k, l)
		}
		contents[v] = NewRLNC(buf, rng.New(seed, uint64(v)))
		nw.SetProtocol(graph.NodeID(v),
			New(s, f, graph.NodeID(v), contents[v], false, rng.New(seed, 0xdd, uint64(v))))
	}
	rounds, ok := nw.RunUntil(limit, func() bool {
		for _, c := range contents {
			if !c.Done() {
				return false
			}
		}
		return true
	})
	if ok {
		// Every node must decode the exact original messages.
		for v, c := range contents {
			got, dok := c.Buffer().Decode()
			if !dok {
				t.Fatalf("node %d cannot decode after completion", v)
			}
			for i := range msgs {
				if !bitvec.Equal(got[i], msgs[i]) {
					t.Fatalf("node %d message %d corrupted", v, i)
				}
			}
		}
	}
	return rounds, ok
}

func TestMultiMessageKnownTopology(t *testing.T) {
	// Theorem 1.2 shape: complete within c(D + k log n + log^2 n).
	cases := []struct {
		g *graph.Graph
		k int
	}{
		{graph.Grid(8, 8), 4},
		{graph.Grid(8, 8), 16},
		{graph.Path(48), 8},
		{graph.GNP(80, 0.08, 3), 12},
		{graph.ClusterChain(6, 6), 8},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%s-k%d", c.g.Name(), c.k), func(t *testing.T) {
			d := int64(graph.Eccentricity(c.g, 0))
			l := int64(sched.LogN(c.g.N()))
			limit := 300 * (d + int64(c.k)*l + l*l)
			rounds, ok := runRLNC(t, c.g, c.k, 4, limit)
			if !ok {
				t.Fatalf("k=%d broadcast incomplete after %d rounds", c.k, limit)
			}
			t.Logf("%s k=%d: D=%d rounds=%d", c.g.Name(), c.k, d, rounds)
		})
	}
}

func TestMultiMessageScalesLinearlyInK(t *testing.T) {
	// Rounds should grow roughly linearly in k (slope ~ log n), not
	// quadratically: rounds(16)/rounds(4) well below 16/4 squared.
	g := graph.Grid(6, 6)
	r4, ok4 := runRLNC(t, g, 4, 9, 1<<20)
	r16, ok16 := runRLNC(t, g, 16, 9, 1<<20)
	if !ok4 || !ok16 {
		t.Fatal("broadcasts incomplete")
	}
	ratio := float64(r16) / float64(r4)
	if ratio > 10 {
		t.Fatalf("rounds grew superlinearly in k: ratio %.1f", ratio)
	}
	t.Logf("k=4: %d rounds; k=16: %d rounds; ratio %.2f", r4, r16, ratio)
}

func TestMultiRootBroadcast(t *testing.T) {
	// Ring-style usage: GST rooted at a whole boundary layer.
	g := graph.Grid(8, 8)
	roots := make([]graph.NodeID, 8)
	for i := range roots {
		roots[i] = graph.NodeID(i)
	}
	tree := gst.Construct(g, roots...)
	f := gst.Flatten(tree)
	s := NewSchedule(g.N())
	nw := radio.New(g, radio.Config{})
	contents := make([]*SingleMessage, g.N())
	for v := 0; v < g.N(); v++ {
		isRoot := v < 8
		contents[v] = NewSingleMessage(isRoot, decay.Message{Data: 5})
		nw.SetProtocol(graph.NodeID(v),
			New(s, f, graph.NodeID(v), contents[v], false, rng.New(8, uint64(v))))
	}
	rounds, ok := nw.RunUntil(1<<18, func() bool {
		for _, c := range contents {
			if !c.Done() {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("multi-root broadcast incomplete")
	}
	t.Logf("multi-root: %d rounds", rounds)
}

func TestScheduleSlotProperties(t *testing.T) {
	s := NewSchedule(256)
	// Fast slots are even, slow slots odd.
	for t0 := int64(0); t0 < 4*s.M; t0++ {
		for level := int32(0); level < 5; level++ {
			for rank := int32(1); rank <= 4; rank++ {
				if s.FastSlot(t0, level, rank) && t0%2 != 0 {
					t.Fatal("fast slot on odd round")
				}
			}
			if s.SlowProb(t0, level) > 0 && t0%2 == 0 {
				t.Fatal("slow slot on even round")
			}
		}
	}
	// Distinct ranks at the same level never share a fast slot.
	for r1 := int32(1); r1 <= int32(s.L+1); r1++ {
		for r2 := r1 + 1; r2 <= int32(s.L+1); r2++ {
			for t0 := int64(0); t0 < s.M; t0++ {
				if s.FastSlot(t0, 3, r1) && s.FastSlot(t0, 3, r2) {
					t.Fatalf("ranks %d and %d share fast slot %d", r1, r2, t0)
				}
			}
		}
	}
	// Slow probabilities sweep 1 .. 2^-(L-1).
	seen := map[float64]bool{}
	for t0 := int64(1); t0 < 6*int64(s.L)+1; t0 += 6 {
		seen[s.SlowProb(t0, 0)] = true
	}
	if len(seen) != s.L {
		t.Fatalf("slow sweep covers %d densities, want %d", len(seen), s.L)
	}
}

func TestLevelKeyedAblationStillWorksWithoutNoise(t *testing.T) {
	// Without noise, the level-keyed schedule behaves like [7]'s and
	// must still complete (it only loses the MMV property).
	g := graph.Grid(6, 6)
	tree := gst.Construct(g, 0)
	f := gst.Flatten(tree)
	s := NewSchedule(g.N())
	nw := radio.New(g, radio.Config{})
	contents := make([]*SingleMessage, g.N())
	for v := 0; v < g.N(); v++ {
		contents[v] = NewSingleMessage(v == 0, decay.Message{})
		nw.SetProtocol(graph.NodeID(v),
			NewLevelKeyed(s, f, graph.NodeID(v), contents[v], false, rng.New(3, uint64(v))))
	}
	_, ok := nw.RunUntil(1<<18, func() bool {
		for _, c := range contents {
			if !c.Done() {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("level-keyed broadcast incomplete without noise")
	}
}

func BenchmarkSingleMessageGrid8(b *testing.B) {
	g := graph.Grid(8, 8)
	for i := 0; i < b.N; i++ {
		if _, ok := runSingle(g, false, uint64(i), 1<<20); !ok {
			b.Fatal("incomplete")
		}
	}
}
