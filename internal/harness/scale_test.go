package harness

import (
	"strconv"
	"strings"
	"testing"

	"radiocast/internal/exp"
)

// scaleSweeps lists the rows of the scale-sweep table.
var scaleSweeps = []scaleSweep{e19Sweep, e21Sweep, e22Sweep}

// TestScaleSweepQuickCompletes runs each quick scale sweep (n up to
// 10^4) and requires every cell to finish its broadcast and carry the
// capacity metrics: E19's dense catalog on the ideal channel, E21's
// structured GST broadcast on the fixed MMV schedule (quiet and
// noised), and E22's unit-disk workloads, whose qudg rows complete
// under the distance-ramped band erasure (decay and CR retry, the
// wave gets the 4x-eccentricity slacked horizon). Every column must be
// in the header and every workload must have a row.
func TestScaleSweepQuickCompletes(t *testing.T) {
	for _, sw := range scaleSweeps {
		sw := sw
		t.Run(sw.id, func(t *testing.T) {
			p := sw.plan(DefaultScaleConfig(), 1, true)
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
				t.Fatalf("%s produced no rows", sw.id)
			}
			header := map[string]bool{}
			for _, h := range tb.Header {
				header[h] = true
			}
			for _, col := range sw.cols {
				if !header[col.name] {
					t.Errorf("%s header %v missing column %q", sw.id, tb.Header, col.name)
				}
			}
			workloads := map[string]bool{}
			for _, row := range tb.Rows {
				workloads[row[0]] = true
			}
			for _, w := range sw.workloads {
				if !workloads[w] {
					t.Errorf("%s table missing workload row %q", sw.id, w)
				}
			}
		})
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
	if len(tb.Rows) != len(e20Rates)*len(denseCols) {
		t.Fatalf("E20 rows = %d, want %d", len(tb.Rows), len(e20Rates)*len(denseCols))
	}
}

// TestScaleWorkerInvariance pins the sweep-level face of the dense
// engine's determinism contract: the E19, E20, and E21 tables are
// byte-identical whether the engine runs sequentially or with the
// parallel delivery pass — threaded through ScaleConfig, no package
// state. E22 is pinned by TestE22WorkerInvariance.
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
// cell plans (the acceptance run relies on raising it to reach 10^6)
// and that E19 and E21 cap their path workload at 10^4. E22's caps are
// pinned by TestE22MaxNCapsSweep.
func TestScaleMaxNCapsSweep(t *testing.T) {
	checkMaxNCaps(t, e19Sweep, map[string]int{"path": 10_000})
	checkMaxNCaps(t, e21Sweep, map[string]int{"path": 10_000})
}

// checkMaxNCaps plans sw at MaxN 10^3, 10^5 and 10^6 and requires the
// largest cell of every workload to be exactly min(MaxN, caps[w]) (no
// cap when w is absent): no cell exceeds it, and every workload
// reaches it.
func checkMaxNCaps(t *testing.T, sw scaleSweep, caps map[string]int) {
	t.Helper()
	for _, maxN := range []int{1_000, 100_000, 1_000_000} {
		largest := map[string]int{}
		for _, c := range sw.plan(ScaleConfig{MaxN: maxN}, 1, false).Cells {
			parts := strings.Split(c.Key.Config, "/")
			n, err := strconv.Atoi(strings.TrimPrefix(parts[2], "n="))
			if err != nil {
				t.Fatalf("%s: unparsable cell key %s", sw.id, c.Key)
			}
			if n > largest[parts[1]] {
				largest[parts[1]] = n
			}
		}
		for _, w := range sw.workloads {
			limit := maxN
			if cap, ok := caps[w]; ok && cap < limit {
				limit = cap
			}
			if largest[w] != limit {
				t.Errorf("%s MaxN=%d: largest %s cell has n=%d, want min(MaxN, cap) = %d",
					sw.id, maxN, w, largest[w], limit)
			}
		}
	}
}
