package harness

import (
	"testing"

	"radiocast/internal/channel"
	"radiocast/internal/graph"
	"radiocast/internal/rings"
	"radiocast/internal/rng"
)

// TestReuseContextsMatchFreshRuns pins the harness half of the reuse
// contract across every stack: executing N seeds through one reusable
// context must produce exactly the rounds, completion, and engine
// stats of N construct-per-run executions — including over an
// adversarial channel.
func TestReuseContextsMatchFreshRuns(t *testing.T) {
	g := graph.ClusterChain(4, 5)
	d := graph.Eccentricity(g, 0)
	const limit = 1 << 20
	seeds := []uint64{0, 1, 2, 5}

	t.Run("decay", func(t *testing.T) {
		run := cellStack("decay", g, d, StackOpts{})
		for _, s := range seeds {
			fr, fok, fst := cellStack("decay", g, d, StackOpts{}).RunFrom(nil, nil, s, limit)
			rr, rok, rst := run.RunFrom(nil, nil, s, limit)
			if fr != rr || fok != rok || fst != rst {
				t.Fatalf("seed %d: fresh (%d,%v,%+v) vs reused (%d,%v,%+v)", s, fr, fok, fst, rr, rok, rst)
			}
		}
	})
	t.Run("decay-lossy", func(t *testing.T) {
		run := cellStack("decay", g, d, StackOpts{})
		for _, s := range seeds {
			fr, fok, fst := cellStack("decay", g, d, StackOpts{}).RunFrom(nil, channel.NewErasure(0.2, rng.Mix(s, 1)), s, limit)
			rr, rok, rst := run.RunFrom(nil, channel.NewErasure(0.2, rng.Mix(s, 1)), s, limit)
			if fr != rr || fok != rok || fst != rst {
				t.Fatalf("seed %d: fresh (%d,%v,%+v) vs reused (%d,%v,%+v)", s, fr, fok, fst, rr, rok, rst)
			}
		}
	})
	t.Run("cr", func(t *testing.T) {
		run := cellStack("cr", g, d, StackOpts{})
		for _, s := range seeds {
			fr, fok, _ := cellStack("cr", g, d, StackOpts{}).RunFrom(nil, nil, s, limit)
			rr, rok, _ := run.RunFrom(nil, nil, s, limit)
			if fr != rr || fok != rok {
				t.Fatalf("seed %d: fresh (%d,%v) vs reused (%d,%v)", s, fr, fok, rr, rok)
			}
		}
	})
	t.Run("gst-single", func(t *testing.T) {
		run := gstStack(g, false, 0)
		for _, s := range seeds {
			fr, fok, _ := gstStack(g, false, 0).RunFrom(nil, nil, s, limit)
			rr, rok, _ := run.RunFrom(nil, nil, s, limit)
			if fr != rr || fok != rok {
				t.Fatalf("seed %d: fresh (%d,%v) vs reused (%d,%v)", s, fr, fok, rr, rok)
			}
		}
	})
	t.Run("gst-multi", func(t *testing.T) {
		run := gstMultiStack(g, 4, 0)
		for _, s := range seeds {
			fr, fok, _ := gstMultiStack(g, 4, 0).RunFrom(nil, nil, s, limit)
			rr, rok, _ := run.RunFrom(nil, nil, s, limit)
			if fr != rr || fok != rok {
				t.Fatalf("seed %d: fresh (%d,%v) vs reused (%d,%v)", s, fr, fok, rr, rok)
			}
		}
	})
	t.Run("theorem11", func(t *testing.T) {
		run := cellStack("cd", g, d, StackOpts{})
		for _, s := range seeds {
			fr, fok, fst := cellStack("cd", g, d, StackOpts{}).RunFrom(nil, nil, s, 0)
			rr, rok, rst := run.RunFrom(nil, nil, s, 0)
			if fr != rr || fok != rok || fst != rst {
				t.Fatalf("seed %d: fresh (%d,%v,%+v) vs reused (%d,%v,%+v)", s, fr, fok, fst, rr, rok, rst)
			}
		}
	})
	t.Run("gst-build", func(t *testing.T) {
		// E6's two modes: N-seed runs through one reusable context must
		// match one-shot construct-per-run executions bit for bit —
		// completion round, completion, validity, and budget.
		for _, pipelined := range []bool{false, true} {
			run := NewGSTPipelinedRun(g, g.N(), d, 1, pipelined)
			for _, s := range seeds {
				fresh := NewGSTPipelinedRun(g, g.N(), d, 1, pipelined).Run(s)
				reused := run.Run(s)
				if fresh != reused {
					t.Fatalf("pipelined=%v seed %d:\nfresh  %+v\nreused %+v", pipelined, s, fresh, reused)
				}
			}
		}
	})
	t.Run("gst-build-nbound", func(t *testing.T) {
		// The large-schedule-bound regime E6 reports (N = 2^10) must
		// reuse identically too.
		run := NewGSTPipelinedRun(g, 1<<10, d, 1, true)
		for _, s := range seeds[:2] {
			fresh := NewGSTPipelinedRun(g, 1<<10, d, 1, true).Run(s)
			reused := run.Run(s)
			if fresh != reused {
				t.Fatalf("seed %d:\nfresh  %+v\nreused %+v", s, fresh, reused)
			}
		}
	})
	t.Run("theorem11-pipelined", func(t *testing.T) {
		// Wide rings engage the pipelined per-ring builds; the reuse
		// path must stay bit-identical there as well.
		cfg := rings.DefaultConfig(g.N(), d, 0, 1)
		cfg.W = 5
		cfg.GST.DBound = cfg.W - 1
		cfg.SetPipelined(true)
		if !cfg.Pipelined() {
			t.Fatal("pipelining did not engage at W=5")
		}
		run := ringStack(g, cfg, 0, 0x11)
		for _, s := range seeds {
			fr, fok, fst := ringStack(g, cfg, 0, 0x11).RunFrom(nil, nil, s, 0)
			rr, rok, rst := run.RunFrom(nil, nil, s, 0)
			if fr != rr || fok != rok || fst != rst {
				t.Fatalf("seed %d: fresh (%d,%v,%+v) vs reused (%d,%v,%+v)", s, fr, fok, fst, rr, rok, rst)
			}
		}
	})
	t.Run("theorem13", func(t *testing.T) {
		run := cellStack("k-cd", g, d, StackOpts{K: 4})
		for _, s := range seeds {
			fr, fok, fst := cellStack("k-cd", g, d, StackOpts{K: 4}).RunFrom(nil, nil, s, 0)
			rr, rok, rst := run.RunFrom(nil, nil, s, 0)
			if fr != rr || fok != rok || fst != rst {
				t.Fatalf("seed %d: fresh (%d,%v,%+v) vs reused (%d,%v,%+v)", s, fr, fok, fst, rr, rok, rst)
			}
		}
	})
}
