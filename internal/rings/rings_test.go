package rings

import (
	"fmt"
	"testing"

	"radiocast/internal/bitvec"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/gstdist"
	"radiocast/internal/radio"
	"radiocast/internal/rlnc"
	"radiocast/internal/rng"
)

// runSingle executes the full Theorem 1.1 stack.
func runSingle(t *testing.T, g *graph.Graph, cfg Config, seed uint64) ([]*Protocol, int64, bool) {
	t.Helper()
	nw := radio.New(g, radio.Config{CollisionDetection: true})
	protos := make([]*Protocol, g.N())
	f := gst.NewFlat(g.N())
	for v := 0; v < g.N(); v++ {
		protos[v] = New(cfg, f, graph.NodeID(v), v == 0, nil, rng.New(seed, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	rounds, ok := nw.RunUntil(cfg.TotalRounds(), func() bool {
		for _, p := range protos {
			if !p.Has() {
				return false
			}
		}
		return true
	})
	return protos, rounds, ok
}

func TestTheorem11SingleRing(t *testing.T) {
	// Small diameter: one ring, the whole pipeline still runs.
	g := graph.GNP(40, 0.15, 3)
	d := graph.Eccentricity(g, 0)
	cfg := DefaultConfig(g.N(), d, 0, 1)
	if cfg.Rings() < 1 {
		t.Fatal("no rings")
	}
	_, rounds, ok := runSingle(t, g, cfg, 1)
	if !ok {
		t.Fatalf("broadcast incomplete within %d rounds", cfg.TotalRounds())
	}
	t.Logf("n=%d D=%d rings=%d rounds=%d (wave=%d build=%d spread=%d)",
		g.N(), d, cfg.Rings(), rounds, cfg.WaveRounds(), cfg.BuildRounds(), cfg.SpreadRounds())
}

func TestTheorem11MultiRing(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path-36", graph.Path(36)},
		{"grid-4x16", graph.Grid(4, 16)},
		{"clusterchain-8x4", graph.ClusterChain(8, 4)},
		{"caterpillar-16x1", graph.Caterpillar(16, 1)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := graph.Eccentricity(c.g, 0)
			cfg := DefaultConfig(c.g.N(), d, 0, 1)
			cfg.W = 4 // force several rings
			cfg.GST.DBound = cfg.W - 1
			if cfg.Rings() < 3 {
				t.Fatalf("want >=3 rings, got %d (D=%d)", cfg.Rings(), d)
			}
			protos, rounds, ok := runSingle(t, c.g, cfg, 2)
			if !ok {
				missing := 0
				for _, p := range protos {
					if !p.Has() {
						missing++
					}
				}
				t.Fatalf("broadcast incomplete: %d/%d nodes missing after %d rounds",
					missing, c.g.N(), cfg.TotalRounds())
			}
			t.Logf("%s: D=%d W=%d rings=%d rounds=%d", c.name, d, cfg.W, cfg.Rings(), rounds)
		})
	}
}

func TestTheorem11MultiRingPipelinedBoundaries(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path-36", graph.Path(36)},
		{"grid-4x16", graph.Grid(4, 16)},
		{"clusterchain-8x4", graph.ClusterChain(8, 4)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			d := graph.Eccentricity(c.g, 0)
			cfg := DefaultConfig(c.g.N(), d, 0, 1)
			cfg.W = 5 // wide enough that the pipeline shortens the build
			cfg.GST.DBound = cfg.W - 1
			seq := cfg.BuildRounds()
			cfg.SetPipelined(true)
			if !cfg.Pipelined() {
				t.Fatalf("pipelining did not engage at W=%d", cfg.W)
			}
			if cfg.BuildRounds() >= seq {
				t.Fatalf("pipelined build %d rounds, sequential %d", cfg.BuildRounds(), seq)
			}
			protos, rounds, ok := runSingle(t, c.g, cfg, 2)
			if !ok {
				missing := 0
				for _, p := range protos {
					if !p.Has() {
						missing++
					}
				}
				t.Fatalf("broadcast incomplete: %d/%d nodes missing after %d rounds",
					missing, c.g.N(), cfg.TotalRounds())
			}
			t.Logf("%s: D=%d W=%d rings=%d rounds=%d (build %d vs seq %d)",
				c.name, d, cfg.W, cfg.Rings(), rounds, cfg.BuildRounds(), seq)
		})
	}
}

func TestSetPipelinedKeepsNarrowRingsSequential(t *testing.T) {
	// At the minimum width W=3 the per-ring diameter bound is 2 and the
	// skew-3 wavefront is longer than the lockstep — SetPipelined must
	// refuse rather than regress the build.
	cfg := DefaultConfig(64, 9, 0, 1)
	if cfg.W != 3 {
		t.Fatalf("expected default W=3, got %d", cfg.W)
	}
	cfg.SetPipelined(true)
	if cfg.Pipelined() {
		t.Fatal("pipelining engaged on W=3 rings where it lengthens the build")
	}
}

func TestTheorem11LayersMatchBFS(t *testing.T) {
	g := graph.Grid(4, 12)
	d := graph.Eccentricity(g, 0)
	cfg := DefaultConfig(g.N(), d, 0, 1)
	cfg.W = 4
	cfg.GST.DBound = 3
	protos, _, ok := runSingle(t, g, cfg, 5)
	if !ok {
		t.Fatal("incomplete")
	}
	bfs := graph.BFS(g, 0)
	for v, p := range protos {
		if p.Layer() != bfs.Dist[v] {
			t.Fatalf("node %d layer %d, want %d", v, p.Layer(), bfs.Dist[v])
		}
	}
}

// runMulti executes the full Theorem 1.3 stack and verifies decoding.
func runMulti(t *testing.T, g *graph.Graph, k int, cfg Config, seed uint64) (int64, bool) {
	t.Helper()
	r := rng.New(seed, 0xfeed)
	msgs := make([]rlnc.Message, k)
	for i := range msgs {
		msgs[i] = bitvec.RandomVec(PayloadBits, r.Uint64)
	}
	nw := radio.New(g, radio.Config{CollisionDetection: true})
	protos := make([]*Protocol, g.N())
	f := gst.NewFlat(g.N())
	for v := 0; v < g.N(); v++ {
		var m []rlnc.Message
		if v == 0 {
			m = msgs
		}
		protos[v] = New(cfg, f, graph.NodeID(v), v == 0, m, rng.New(seed, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	rounds, ok := nw.RunUntil(cfg.TotalRounds(), func() bool {
		for _, p := range protos {
			if !p.Store().CanDecodeAll() {
				return false
			}
		}
		return true
	})
	if ok {
		for v, p := range protos {
			got, dok := p.Store().DecodeAll()
			if !dok {
				t.Fatalf("node %d cannot decode", v)
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

func TestTheorem13SingleRing(t *testing.T) {
	g := graph.GNP(36, 0.18, 9)
	d := graph.Eccentricity(g, 0)
	const k = 8
	cfg := DefaultConfig(g.N(), d, k, 1)
	rounds, ok := runMulti(t, g, k, cfg, 3)
	if !ok {
		t.Fatalf("k-message broadcast incomplete within %d rounds", cfg.TotalRounds())
	}
	t.Logf("n=%d D=%d k=%d batches=%d rounds=%d", g.N(), d, k, cfg.Batches(), rounds)
}

func TestTheorem13MultiRingPipeline(t *testing.T) {
	g := graph.Grid(4, 12)
	d := graph.Eccentricity(g, 0)
	const k = 10
	cfg := DefaultConfig(g.N(), d, k, 1)
	cfg.W = 4
	cfg.GST.DBound = 3
	if cfg.Rings() < 3 || cfg.Batches() < 2 {
		t.Fatalf("want a real pipeline: rings=%d batches=%d", cfg.Rings(), cfg.Batches())
	}
	rounds, ok := runMulti(t, g, k, cfg, 4)
	if !ok {
		t.Fatalf("pipelined broadcast incomplete within %d rounds", cfg.TotalRounds())
	}
	t.Logf("D=%d W=%d rings=%d batches=%d epochs=%d rounds=%d",
		d, cfg.W, cfg.Rings(), cfg.Batches(), cfg.Epochs(), rounds)
}

// flatRow is node v's row of f, in gstdist.Result shape plus the two
// flags the writer derives.
func flatRow(f *gst.Flat, v graph.NodeID) (res gstdist.Result, root, stretchStart bool) {
	res = gstdist.Result{
		Level: f.Level[v], Rank: f.Rank[v], Parent: f.Parent[v],
		ParentRank: f.ParentRank[v], Vdist: f.Vdist[v], SameRankChild: f.SameRankChild[v],
	}
	return res, f.Root[v], f.StretchStart[v]
}

// TestFlatRowIsBuildResult pins the distributed row write of Theorems
// 1.1 and 1.3, fresh and Reset-reused: before the build every row is
// zero; after it, each node's row of the shared Flat is its own
// gstdist.Result verbatim, with Root = (local level 0) and
// StretchStart = Root || ParentRank != Rank. Rows are harvested in
// reverse node order (children before their parents), so a row that
// borrowed anything from another node's row would show it. The run
// then finishes the broadcast off those rows.
func TestFlatRowIsBuildResult(t *testing.T) {
	g := graph.ClusterChain(6, 6)
	d := graph.Eccentricity(g, 0)
	for _, k := range []int{0, 4} {
		cfg := DefaultConfig(g.N(), d, k, 1)
		cfg.W = 4 // several rings, so inner rings have local roots
		cfg.GST.DBound = cfg.W - 1
		msgs := make([]rlnc.Message, k)
		for i := range msgs {
			msgs[i] = bitvec.New(PayloadBits)
		}
		sourceMsgs := func(v int) []rlnc.Message {
			if v == 0 && k > 0 {
				return msgs
			}
			return nil
		}
		f := gst.NewFlat(g.N())
		nw := radio.New(g, radio.Config{CollisionDetection: true})
		protos := make([]*Protocol, g.N())
		for v := range protos {
			protos[v] = New(cfg, f, graph.NodeID(v), v == 0, sourceMsgs(v), rng.New(9, uint64(v)))
		}
		for run := 0; run < 2; run++ {
			label := fmt.Sprintf("k=%d run=%d", k, run)
			nw.Reset()
			for v, p := range protos {
				if run > 0 {
					p.Reset(v == 0, sourceMsgs(v))
					rng.Reseed(p.Rng(), uint64(run), uint64(v))
				}
				if res, root, ss := flatRow(f, graph.NodeID(v)); res != (gstdist.Result{}) || root || ss {
					t.Fatalf("%s: node %d row before the build %+v root=%v stretch=%v, want zero", label, v, res, root, ss)
				}
				nw.SetProtocol(graph.NodeID(v), p)
			}
			nw.Run(protos[0].spreadStart())
			for v := len(protos) - 1; v >= 0; v-- {
				protos[v].finishBuild()
			}
			for v, p := range protos {
				want := p.gp.Result()
				wantRoot := p.local == 0
				res, root, ss := flatRow(f, graph.NodeID(v))
				if res != want || root != wantRoot || ss != (wantRoot || want.ParentRank != want.Rank) {
					t.Fatalf("%s: node %d row %+v root=%v stretch=%v, want %+v root=%v",
						label, v, res, root, ss, want, wantRoot)
				}
			}
			_, ok := nw.RunUntil(cfg.TotalRounds(), func() bool {
				for _, p := range protos {
					if (k == 0 && !p.Has()) || (k > 0 && !p.Store().CanDecodeAll()) {
						return false
					}
				}
				return true
			})
			if !ok {
				t.Fatalf("%s: broadcast incomplete within %d rounds", label, cfg.TotalRounds())
			}
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := DefaultConfig(1024, 100, 0, 1)
	if cfg.W < 3 {
		t.Fatalf("W = %d", cfg.W)
	}
	if cfg.Rings() != (100+cfg.W)/cfg.W {
		t.Fatal("ring count wrong")
	}
	for layer := int32(0); layer <= 100; layer++ {
		ring := cfg.RingOf(layer)
		if ring < 0 || ring >= cfg.Rings() {
			t.Fatalf("layer %d -> ring %d out of range", layer, ring)
		}
		if cfg.LocalLevel(layer) != layer%int32(cfg.W) {
			t.Fatal("local level wrong")
		}
	}
	// Locate covers the whole schedule without gaps.
	var seen [4]bool
	for _, r := range []int64{0, cfg.WaveRounds(), cfg.WaveRounds() + cfg.BuildRounds(),
		cfg.TotalRounds() - 1} {
		switch cfg.Locator().Locate(r).Seg {
		case SegWave:
			seen[0] = true
		case SegBuild:
			seen[1] = true
		case SegSpread:
			seen[2] = true
		case SegDone:
			seen[3] = true
		}
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("segments missing: %v", seen)
	}
}

func TestStride2NeverActivatesAdjacentRings(t *testing.T) {
	cfg := DefaultConfig(256, 40, 16, 1)
	cfg.W = 4
	p1 := &Protocol{cfg: cfg, ring: 3}
	p2 := &Protocol{cfg: cfg, ring: 4}
	for e := 0; e < cfg.Epochs(); e++ {
		if p1.activeBatch(e) >= 0 && p2.activeBatch(e) >= 0 {
			t.Fatalf("adjacent rings 3 and 4 both active in epoch %d", e)
		}
	}
}

func TestBatchDeliverySchedule(t *testing.T) {
	// Ring j must see batch b exactly in epoch j + 2b.
	cfg := DefaultConfig(256, 40, 16, 1)
	cfg.W = 4
	p := &Protocol{cfg: cfg, ring: 2}
	for b := 0; b < cfg.Batches(); b++ {
		e := 2 + 2*b
		if got := p.activeBatch(e); got != b {
			t.Fatalf("epoch %d: batch %d, want %d", e, got, b)
		}
	}
}

func BenchmarkTheorem11Path36(b *testing.B) {
	g := graph.Path(36)
	d := graph.Eccentricity(g, 0)
	cfg := DefaultConfig(g.N(), d, 0, 1)
	cfg.W = 4
	cfg.GST.DBound = 3
	for i := 0; i < b.N; i++ {
		nw := radio.New(g, radio.Config{CollisionDetection: true})
		protos := make([]*Protocol, g.N())
		f := gst.NewFlat(g.N())
		for v := 0; v < g.N(); v++ {
			protos[v] = New(cfg, f, graph.NodeID(v), v == 0, nil, rng.New(uint64(i), uint64(v)))
			nw.SetProtocol(graph.NodeID(v), protos[v])
		}
		if _, ok := nw.RunUntil(cfg.TotalRounds(), func() bool {
			for _, p := range protos {
				if !p.Has() {
					return false
				}
			}
			return true
		}); !ok {
			b.Fatal(fmt.Sprintf("iteration %d incomplete", i))
		}
	}
}
