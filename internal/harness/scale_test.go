package harness

import (
	"strings"
	"testing"

	"radiocast/internal/exp"
)

// TestE19QuickCompletes runs the quick scale sweep (n up to 10^4,
// decay/cr/wave) and requires every cell to finish its broadcast and
// carry the capacity metrics.
func TestE19QuickCompletes(t *testing.T) {
	p := E19Plan(DefaultScaleConfig(), 1, true)
	results := (&exp.Runner{Parallelism: 1}).Run(p)
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Key, r.Err)
		}
		if !r.Completed {
			t.Errorf("%s: broadcast incomplete after %d rounds", r.Key, r.Rounds)
		}
		if r.MemBytes < 0 || r.Value <= 0 {
			t.Errorf("%s: implausible metrics mem=%d deliveries=%g", r.Key, r.MemBytes, r.Value)
		}
	}
	tb := p.Assemble(results)
	if len(tb.Rows) == 0 {
		t.Fatal("E19 produced no rows")
	}
	for _, proto := range e19Protocols {
		found := false
		for _, h := range tb.Header {
			found = found || h == proto
		}
		if !found {
			t.Errorf("E19 header %v missing protocol column %q", tb.Header, proto)
		}
	}
}

// TestE20QuickCompletes runs the quick erasure sweep (n = 10^4, full
// loss grid) and requires every cell of every protocol to reach full
// coverage: decay and CR retry until done, and at these loss rates the
// wave's slacked horizon is ample on the gnp workload.
func TestE20QuickCompletes(t *testing.T) {
	p := E20Plan(DefaultScaleConfig(), 1, true)
	results := (&exp.Runner{Parallelism: 1}).Run(p)
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Key, r.Err)
		}
		if !r.Completed {
			t.Errorf("%s: incomplete after %d rounds", r.Key, r.Rounds)
		}
		if r.Value != 1 {
			t.Errorf("%s: coverage = %g, want 1", r.Key, r.Value)
		}
	}
	tb := p.Assemble(results)
	if len(tb.Rows) != len(e20Rates)*len(e19Protocols) {
		t.Fatalf("E20 rows = %d, want %d", len(tb.Rows), len(e20Rates)*len(e19Protocols))
	}
}

// TestE21QuickCompletes runs the quick structured-broadcast sweep
// (n up to 10^4, quiet and noised) and requires every cell to finish
// on the fixed MMV schedule and carry the capacity metrics.
func TestE21QuickCompletes(t *testing.T) {
	p := E21Plan(DefaultScaleConfig(), 1, true)
	results := (&exp.Runner{Parallelism: 1}).Run(p)
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Key, r.Err)
		}
		if !r.Completed {
			t.Errorf("%s: broadcast incomplete after %d rounds", r.Key, r.Rounds)
		}
		if r.MemBytes < 0 || r.Value <= 0 {
			t.Errorf("%s: implausible metrics mem=%d deliveries=%g", r.Key, r.MemBytes, r.Value)
		}
	}
	tb := p.Assemble(results)
	if len(tb.Rows) == 0 {
		t.Fatal("E21 produced no rows")
	}
	for _, mode := range e21Modes {
		found := false
		for _, h := range tb.Header {
			found = found || h == mode.name
		}
		if !found {
			t.Errorf("E21 header %v missing mode column %q", tb.Header, mode.name)
		}
	}
}

// TestScaleWorkerInvariance pins the sweep-level face of the dense
// engine's determinism contract: the E19, E20, and E21 tables (and the
// canonical artifact) are byte-identical whether the engine runs
// sequentially or with the parallel delivery pass — threaded through
// ScaleConfig, no package state.
func TestScaleWorkerInvariance(t *testing.T) {
	for _, plan := range []struct {
		id string
		fn func(sc ScaleConfig, seeds int, quick bool) *exp.Plan
	}{
		{"E19", E19Plan},
		{"E20", E20Plan},
		{"E21", E21Plan},
	} {
		run := func(workers int) string {
			p := plan.fn(ScaleConfig{Workers: workers}, 1, true)
			tb, _ := (&exp.Runner{Parallelism: 1}).RunTable(p)
			return tb.String()
		}
		seq := run(1)
		par := run(4)
		if seq != par {
			t.Fatalf("%s tables diverge across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
				plan.id, seq, par)
		}
	}
}

// TestScaleMaxNCapsSweep pins that ScaleConfig.MaxN actually trims the
// cell plans (the acceptance run relies on raising it to reach 10^6).
func TestScaleMaxNCapsSweep(t *testing.T) {
	small := E19Plan(ScaleConfig{MaxN: 1_000}, 1, false)
	big := E19Plan(ScaleConfig{MaxN: 100_000}, 1, false)
	if len(small.Cells) >= len(big.Cells) {
		t.Fatalf("MaxN=1000 plan has %d cells, MaxN=100000 has %d; cap not applied",
			len(small.Cells), len(big.Cells))
	}
	for _, c := range small.Cells {
		if strings.Contains(c.Key.Config, "n=10000") {
			t.Fatalf("MaxN=1000 plan contains oversized cell %s", c.Key)
		}
	}
}
