package harness

import (
	"fmt"

	"radiocast/internal/exp"
	"radiocast/internal/graph"
	"radiocast/internal/gstdist"
	"radiocast/internal/stats"
)

// e6Modes labels the sequential/pipelined cell pairs of E6.
var e6Modes = []string{"seq", "pipe"}

// e6Case is one E6 sweep point: a graph, a schedule size bound (nBound
// >= n lets the sweep reach the n = 2^10 schedule regime on tractable
// graphs — the paper's rounds are functions of the size BOUND), and a
// Θ-constant.
type e6Case struct {
	g      *graph.Graph
	nBound int
	c      int
}

func (c e6Case) d() int { return graph.Eccentricity(c.g, 0) }

func (c e6Case) cfg(pipelined bool) gstdist.Config {
	cfg := gstdist.DefaultConfig(c.nBound, c.d(), c.c, gstdist.LayerPreset, false)
	cfg.PipelinedBoundaries = pipelined
	return cfg
}

func (c e6Case) config(mode string) string {
	return fmt.Sprintf("graph=%s/N=%d/c=%d/%s", c.g.Name(), c.nBound, c.c, mode)
}

func e6Cases(quick bool) []e6Case {
	g48 := graph.Grid(6, 8) // n=48, D=12: the n >= 2^10 schedule rows
	cases := []e6Case{
		{graph.Grid(4, 8), 32, 1},
		{graph.ClusterChain(4, 6), 24, 1},
		{g48, 1 << 10, 1},
	}
	if !quick {
		cases = append(cases,
			e6Case{graph.Grid(4, 8), 32, 2},
			e6Case{graph.ClusterChain(4, 6), 24, 2},
			e6Case{graph.Path(24), 1 << 10, 1}, // D=23: deepest pipeline
		)
	}
	return cases
}

// E6Plan measures the pipelined even/odd boundary construction of
// Section 2.2.4 against the sequential segment-B schedule: same
// graphs, same seeds, both modes, reporting the round at which every
// node knows its parent plus full-GST validity at schedule end. The
// pipelined schedule is 3D + 2·MaxRank - 4 rank-lengths against the
// sequential D·MaxRank — strictly fewer from D >= 4 (and from D >= 3
// at MaxRank >= 6), which is every case below.
func E6Plan(seeds int, quick bool) *exp.Plan {
	cases := e6Cases(quick)
	p := exp.NewGrid("E6", "Pipelined even/odd boundary construction (Thm 2.1, §2.2.4)", seeds)
	for _, cse := range cases {
		d := cse.d()
		for _, mode := range e6Modes {
			pipelined := mode == "pipe"
			p.Add(cse.config(mode), 0, budgetCost(cse.g.N(), cse.cfg(pipelined).TotalRounds()),
				func(seed uint64, _ int64) exp.Result {
					res := NewGSTPipelinedRun(cse.g, cse.nBound, d, cse.c, pipelined).Run(seed)
					return exp.Result{Rounds: res.Rounds, Completed: res.Done && res.Valid, Value: b2f(res.Valid)}
				})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "E6: pipelined even/odd boundary construction (Thm 2.1, §2.2.4)",
			Comment: "segment B only (preset levels); rounds = completion (every node knows its parent), budget = fixed schedule;\n" +
				"pipelined: 3D + 2·MaxRank - 4 rank-length phases vs sequential D·MaxRank; N is the schedule size bound;\n" +
				"c is the global Θ-constant (E3); valid = full GST contract at schedule end, seq/pipe over seeds",
			Header: []string{"graph", "N", "D", "c", "seq rounds", "pipe rounds", "speedup", "seq budget", "pipe budget", "valid s/p"},
		}
		for _, cse := range cases {
			means := map[string]float64{}
			valid := map[string]int{}
			for _, mode := range e6Modes {
				runs := p.Runs(results, cse.config(mode))
				means[mode] = exp.Mean(runs.Each(allRounds))
				for _, r := range runs {
					if r.Value > 0 {
						valid[mode]++
					}
				}
			}
			t.AddRow(cse.g.Name(), fmt.Sprint(cse.nBound), fmt.Sprint(cse.d()), fmt.Sprint(cse.c),
				stats.F(means["seq"]), stats.F(means["pipe"]),
				stats.F(means["seq"]/means["pipe"]),
				fmt.Sprint(cse.cfg(false).TotalRounds()), fmt.Sprint(cse.cfg(true).TotalRounds()),
				fmt.Sprintf("%d/%d of %d", valid["seq"], valid["pipe"], seeds))
		}
		return t
	}
	return p.Plan
}
