package harness

import (
	"fmt"

	"radiocast/internal/bitvec"
	"radiocast/internal/decay"
	"radiocast/internal/exp"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/rings"
	"radiocast/internal/rlnc"
	"radiocast/internal/rng"
	"radiocast/internal/sched"
	"radiocast/internal/stats"
)

// E7Plan sweeps k for Theorem 1.2 and fits the slope.
func E7Plan(seeds int, quick bool) *exp.Plan {
	ks := []int{2, 4, 8, 16, 32}
	if quick {
		ks = []int{2, 4, 8}
	}
	g := graph.Grid(8, 8)
	d := graph.Eccentricity(g, 0)
	l := sched.LogN(g.N())
	p := exp.NewGrid("E7", "k-message broadcast, known topology (Thm 1.2)", seeds)
	for _, k := range ks {
		o := StackOpts{K: k}
		p.Add(fmt.Sprintf("k=%d", k), broadcastLimit, cellCost("k-known", g, d, o), stackRun("k-known", g, d, o))
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   "E7: k-message broadcast, known topology (Thm 1.2)",
			Comment: fmt.Sprintf("grid-8x8, D=%d, log n=%d; paper: O(D + k log n + log^2 n) — linear in k with slope Θ(log n)", d, l),
			Header:  []string{"k", "mean rounds", "rounds/k", "ok"},
		}
		var xs, ys []float64
		for _, k := range ks {
			runs := p.Runs(results, fmt.Sprintf("k=%d", k))
			m := exp.Mean(runs.Rounds())
			xs = append(xs, float64(k))
			ys = append(ys, m)
			t.AddRow(fmt.Sprint(k), stats.F(m), stats.F(m/float64(k)), fmt.Sprint(runs.AllDone()))
		}
		fit := stats.LinearFit(xs, ys)
		t.AddRow("fit", fmt.Sprintf("slope=%s/k", stats.F(fit.Slope)),
			fmt.Sprintf("slope/logn=%s", stats.F(fit.Slope/float64(l))),
			fmt.Sprintf("R2=%s", stats.F(fit.R2)))
		return t
	}
	return p.Plan
}

// E8Plan runs the full Theorem 1.3 stack.
func E8Plan(seeds int, quick bool) *exp.Plan {
	type cse struct {
		g *graph.Graph
		k int
	}
	cases := []cse{
		{graph.Grid(4, 12), 8},
		{graph.ClusterChain(6, 6), 12},
	}
	if !quick {
		cases = append(cases, cse{graph.Grid(4, 20), 16})
	}
	p := exp.NewGrid("E8", "k-message broadcast, unknown topology + CD (Thm 1.3)", seeds)
	for _, c := range cases {
		d := graph.Eccentricity(c.g, 0)
		o := StackOpts{K: c.k}
		p.Add(fmt.Sprintf("graph=%s/k=%d", c.g.Name(), c.k), 0, cellCost("k-cd", c.g, d, o), stackRun("k-cd", c.g, d, o))
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   "E8: k-message broadcast, unknown topology + CD (Thm 1.3)",
			Comment: "full pipeline: wave + parallel ring GSTs + stride-2 batch pipeline with RLNC and fountain handoffs",
			Header:  []string{"graph", "n", "D", "k", "rings", "batches", "rounds", "budget", "ok"},
		}
		for _, c := range cases {
			d := graph.Eccentricity(c.g, 0)
			cfg := rings.DefaultConfig(c.g.N(), d, c.k, 1)
			runs := p.Runs(results, fmt.Sprintf("graph=%s/k=%d", c.g.Name(), c.k))
			t.AddRow(c.g.Name(), fmt.Sprint(c.g.N()), fmt.Sprint(d), fmt.Sprint(c.k),
				fmt.Sprint(cfg.Rings()), fmt.Sprint(cfg.Batches()),
				stats.F(exp.Mean(runs.Rounds())), fmt.Sprint(cfg.TotalRounds()), runs.OK())
		}
		return t
	}
	return p.Plan
}

// jamModes labels the silent/jammed cell pairs of E9 and E10.
var jamModes = []string{"silent", "jam"}

// E9Plan reproduces Lemma 3.2: the level-clocked Decay schedule
// completes under full jamming, with bounded slowdown vs the silent
// variant.
func E9Plan(seeds int, quick bool) *exp.Plan {
	gs := []*graph.Graph{graph.Path(64), graph.Grid(8, 8)}
	if !quick {
		gs = append(gs, graph.ClusterChain(8, 6))
	}
	p := exp.NewGrid("E9", "Decay is MMV (Lemma 3.2)", seeds)
	for _, g := range gs {
		// The level-clocked Decay schedule is costed as the decay entry.
		cost := 3 * cellCost("decay", g, graph.Eccentricity(g, 0), StackOpts{})
		for _, mode := range jamModes {
			noising := mode == "jam"
			p.Add(fmt.Sprintf("graph=%s/%s", g.Name(), mode), 0, cost, func(seed uint64, limit int64) exp.Result {
				return exp.Rounds(runDecayMMV(g, noising, seed, limit))
			})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   "E9: Decay is MMV (Lemma 3.2)",
			Comment: "jamming: nodes without the message transmit noise in their prompted slots",
			Header:  []string{"graph", "silent rounds", "jammed rounds", "ratio", "ok"},
		}
		for _, g := range gs {
			addJamRow(t, p, results, g.Name())
		}
		return t
	}
	return p.Plan
}

// addJamRow folds one graph's silent/jammed cell pairs into a table
// row; a seed counts only when both variants completed (E9/E10 share
// this pairing rule).
func addJamRow(t *stats.Table, p *exp.Grid, results []exp.Result, name string) {
	silent := p.Runs(results, fmt.Sprintf("graph=%s/silent", name))
	jammed := p.Runs(results, fmt.Sprintf("graph=%s/jam", name))
	var rs, rj []float64
	for s, a := range silent {
		if b := jammed[s]; a.Completed && b.Completed {
			rs = append(rs, float64(a.Rounds))
			rj = append(rj, float64(b.Rounds))
		}
	}
	ms, mj := exp.Mean(rs), exp.Mean(rj)
	t.AddRow(name, stats.F(ms), stats.F(mj), stats.F(mj/ms), fmt.Sprint(len(rs) == len(silent)))
}

// runDecayMMV runs the level-clocked Decay schedule to completion or
// its own round cap (200 times the decay entry's estimate), lowered to
// limit when that is positive.
func runDecayMMV(g *graph.Graph, noising bool, seed uint64, limit int64) (int64, bool) {
	levels := graph.BFS(g, 0)
	nw := radio.New(g, radio.Config{})
	var ds radio.DoneSet
	protos := make([]*decay.MMV, g.N())
	for v := 0; v < g.N(); v++ {
		protos[v] = decay.NewMMV(g.N(), int(levels.Dist[v]), noising, decay.Message{Data: 2}, rng.New(seed, 0x91, uint64(v)))
		protos[v].DoneSet = &ds
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	initDone(&ds, g.N(), func(v int) bool { return protos[v].Has() })
	own := 200 * mustProtocol("decay").Rounds(g.N(), int(levels.MaxDist), StackOpts{})
	return nw.RunUntil(lowerLimit(own, limit), ds.Done)
}

// E10Plan reproduces Lemma 3.3: the GST schedule under jamming.
func E10Plan(seeds int, quick bool) *exp.Plan {
	gs := []*graph.Graph{graph.Grid(8, 8), graph.Path(64)}
	if !quick {
		gs = append(gs, graph.GNP(96, 0.06, 7))
	}
	p := exp.NewGrid("E10", "MMV GST schedule under noise (Lemma 3.3)", seeds)
	for _, g := range gs {
		d := graph.Eccentricity(g, 0)
		for _, mode := range jamModes {
			o := StackOpts{Noise: mode == "jam"}
			p.Add(fmt.Sprintf("graph=%s/%s", g.Name(), mode), broadcastLimit, cellCost("gst", g, d, o), stackRun("gst", g, d, o))
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   "E10: MMV GST schedule under noise (Lemma 3.3)",
			Comment: "same schedule, message-less nodes jam their slots; fast waves stay collision-free (Lemma 3.5 is a test invariant)",
			Header:  []string{"graph", "silent rounds", "jammed rounds", "ratio", "ok"},
		}
		for _, g := range gs {
			addJamRow(t, p, results, g.Name())
		}
		return t
	}
	return p.Plan
}

// e11Block is the number of star trials batched into one E11 cell;
// cell (deg, s) runs trials [s·block, (s+1)·block), so the union over
// all cells is exactly the sequential trial set.
const e11Block = 200

// E11Plan reproduces Lemma 2.2: one Decay phase delivers with
// probability >= 1/8 at every degree.
func E11Plan(seeds int, quick bool) *exp.Plan {
	degrees := []int{1, 2, 4, 8, 32, 128}
	if quick {
		degrees = []int{1, 4, 32}
	}
	p := exp.NewGrid("E11", "Decay phase progress (Lemma 2.2)", seeds)
	for _, deg := range degrees {
		p.Add(fmt.Sprintf("deg=%d", deg), 0, 0, func(seed uint64, _ int64) exp.Result {
			s := decay.PlainSchedule(deg + 2)
			succ := 0
			for trial := seed * e11Block; trial < (seed+1)*e11Block; trial++ {
				g := graph.Star(deg + 1)
				nw := radio.New(g, radio.Config{})
				probe := &radio.Silent{}
				nw.SetProtocol(0, probe)
				for v := 1; v <= deg; v++ {
					nw.SetProtocol(graph.NodeID(v),
						decay.NewBroadcast(s, true, decay.Message{}, rng.New(trial, 0xb1, uint64(v), uint64(deg))))
				}
				nw.Run(int64(s.FullLen))
				if probe.Packets > 0 {
					succ++
				}
			}
			return exp.Value(float64(succ))
		})
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		trials := e11Block * seeds
		t := &stats.Table{
			Title:   "E11: per-phase Decay progress probability (Lemma 2.2)",
			Comment: "star center listening, all leaves participating; paper bound: >= 1/8 per phase",
			Header:  []string{"degree", "success rate", "trials"},
		}
		for _, deg := range degrees {
			succ := 0.0
			for _, v := range p.Runs(results, fmt.Sprintf("deg=%d", deg)).Values() {
				succ += v
			}
			t.AddRow(fmt.Sprint(deg), stats.F(succ/float64(trials)), fmt.Sprint(trials))
		}
		return t
	}
	return p.Plan
}

// rlncMeasure carries one E12 cell's counters to Assemble.
type rlncMeasure struct {
	transfer, trials  int
	overheadSum, runs int
}

// E12Plan reproduces Definition 3.8 / Proposition 3.9: infection
// transfer probability >= 1/2 and fountain decoding overhead. One cell
// per k — the trial loops share a single RNG stream, so they cannot be
// split without changing the measured numbers.
func E12Plan(seeds int, quick bool) *exp.Plan {
	ks := []int{4, 8, 16}
	if quick {
		ks = []int{4, 8}
	}
	const l = 16
	p := exp.NewGrid("E12", "RLNC infection and decoding (Def 3.8 / Prop 3.9)", 1)
	for _, k := range ks {
		p.Add(fmt.Sprintf("k=%d", k), 0, 0, func(uint64, int64) exp.Result {
			r := rng.New(uint64(k), 0xc2)
			msgs := make([]rlnc.Message, k)
			for i := range msgs {
				msgs[i] = bitvec.RandomVec(l, r.Uint64)
			}
			src := rlnc.NewSourceBuffer(0, msgs, l)
			transfer, trials := 0, 2000*seeds
			mu := bitvec.RandomNonZeroVec(k, r.Uint64)
			for i := 0; i < trials; i++ {
				p, _ := src.RandomPacket(r)
				if bitvec.Dot(mu, p.Coeff) {
					transfer++
				}
			}
			overheadSum, runs := 0, 100*seeds
			for i := 0; i < runs; i++ {
				dec := rlnc.NewBuffer(0, k, l)
				got := 0
				for !dec.CanDecode() {
					p, _ := src.RandomPacket(r)
					dec.Add(p)
					got++
				}
				overheadSum += got - k
			}
			return exp.Result{
				Completed: true,
				Value:     float64(transfer) / float64(trials),
				Payload:   rlncMeasure{transfer, trials, overheadSum, runs},
			}
		})
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   "E12: RLNC infection and decoding (Def 3.8 / Prop 3.9)",
			Comment: "transfer = P[random packet from an infected sender infects receiver]; overhead = packets beyond k until decode",
			Header:  []string{"k", "transfer rate", "mean overhead"},
		}
		for _, k := range ks {
			m, _ := p.Runs(results, fmt.Sprintf("k=%d", k))[0].Payload.(rlncMeasure)
			t.AddRow(fmt.Sprint(k), stats.F(float64(m.transfer)/float64(m.trials)),
				stats.F(float64(m.overheadSum)/float64(m.runs)))
		}
		return t
	}
	return p.Plan
}

// a1Run executes one A1 cell: the MMV broadcast under jamming with
// either virtual-distance or level-keyed slow slots, capped at 2^18
// rounds or limit when that is positive and smaller. The GST and
// schedule are rebuilt per cell (deterministic) so cells share nothing
// mutable.
func a1Run(g *graph.Graph, levelKeyed bool, seed uint64, limit int64) (int64, bool) {
	f := gst.Flatten(gst.Construct(g, 0))
	s := mmv.NewSchedule(g.N())
	nw := radio.New(g, radio.Config{})
	var ds radio.DoneSet
	contents := make([]*mmv.SingleMessage, g.N())
	for v := 0; v < g.N(); v++ {
		contents[v] = mmv.NewSingleMessage(v == 0, decay.Message{})
		contents[v].DoneSet = &ds
		var p *mmv.Protocol
		if levelKeyed {
			p = mmv.NewLevelKeyed(s, f, graph.NodeID(v), contents[v], true, rng.New(seed, 0xa1, uint64(v)))
		} else {
			p = mmv.New(s, f, graph.NodeID(v), contents[v], true, rng.New(seed, 0xa1, uint64(v)))
		}
		nw.SetProtocol(graph.NodeID(v), p)
	}
	initDone(&ds, g.N(), func(v int) bool { return contents[v].Done() })
	return nw.RunUntil(lowerLimit(1<<18, limit), ds.Done)
}

// A1Plan compares the MMV schedule's virtual-distance slow slots
// against the level-keyed slots of [7,19] under jamming.
func A1Plan(seeds int, quick bool) *exp.Plan {
	gs := []*graph.Graph{graph.Grid(8, 8), graph.GNP(80, 0.08, 5)}
	if quick {
		gs = gs[:1]
	}
	p := exp.NewGrid("A1", "Ablation: virtual-distance vs level-keyed slow slots", seeds)
	for _, g := range gs {
		// Both slow-slot variants run the gst entry's MMV schedule.
		cost := 2 * cellCost("gst", g, graph.Eccentricity(g, 0), StackOpts{})
		for _, variant := range []string{"vdist", "level"} {
			levelKeyed := variant == "level"
			p.Add(fmt.Sprintf("graph=%s/%s", g.Name(), variant), 0, cost, func(seed uint64, limit int64) exp.Result {
				return exp.Rounds(a1Run(g, levelKeyed, seed, limit))
			})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "A1: virtual-distance vs level-keyed slow slots (jamming on)",
			Comment: "informational: the level-keyed schedule is the [7,19] style whose multi-message correctness was disproved ([22]);\n" +
				"on benign workloads both complete — the paper's change buys *provable* MMV bounds (Lemma 3.3), not universal speedup",
			Header: []string{"graph", "vdist rounds", "level rounds", "vdist ok", "level ok"},
		}
		for _, g := range gs {
			vd := p.Runs(results, fmt.Sprintf("graph=%s/vdist", g.Name()))
			lv := p.Runs(results, fmt.Sprintf("graph=%s/level", g.Name()))
			t.AddRow(g.Name(), stats.F(exp.Mean(vd.Rounds())), stats.F(exp.Mean(lv.Rounds())), vd.OK(), lv.OK())
		}
		return t
	}
	return p.Plan
}

// A2Plan quantifies the coding advantage ([11]'s gap).
func A2Plan(seeds int, quick bool) *exp.Plan {
	ks := []int{4, 8, 16}
	if quick {
		ks = ks[:2]
	}
	g := graph.Grid(6, 6)
	d := graph.Eccentricity(g, 0)
	p := exp.NewGrid("A2", "Ablation: RLNC vs store-and-forward routing", seeds)
	for _, k := range ks {
		// Both columns ride the gst entry's MMV schedule once per message.
		cost := int64(k) * cellCost("gst", g, d, StackOpts{})
		p.Add(fmt.Sprintf("k=%d/rlnc", k), broadcastLimit, cost, stackRun("k-known", g, d, StackOpts{K: k}))
		p.Add(fmt.Sprintf("k=%d/routing", k), broadcastLimit, cost, func(seed uint64, limit int64) exp.Result {
			return exp.Rounds(RunGSTMultiRouting(g, k, seed, limit))
		})
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   "A2: RLNC vs store-and-forward routing (grid-6x6)",
			Comment: "same MMV schedule, coded vs uncoded content; coding removes the coupon-collector tail",
			Header:  []string{"k", "rlnc rounds", "routing rounds", "routing/rlnc"},
		}
		for _, k := range ks {
			mc := exp.Mean(p.Runs(results, fmt.Sprintf("k=%d/rlnc", k)).Rounds())
			mr := exp.Mean(p.Runs(results, fmt.Sprintf("k=%d/routing", k)).Rounds())
			t.AddRow(fmt.Sprint(k), stats.F(mc), stats.F(mr), stats.F(mr/mc))
		}
		return t
	}
	return p.Plan
}

// a3Config builds the ring configuration of one A3 width variant.
func a3Config(g *graph.Graph, d, w int) rings.Config {
	cfg := rings.DefaultConfig(g.N(), d, 0, 1)
	cfg.W = w
	cfg.GST.DBound = w - 1
	return cfg
}

// A3Plan sweeps the ring width of Theorem 1.1, exposing the
// construction-vs-spread trade-off the paper resolves with W=D/log^4 n.
func A3Plan(seeds int, quick bool) *exp.Plan {
	g := graph.ClusterChain(10, 4)
	d := graph.Eccentricity(g, 0)
	widths := []int{3, 5, 10, d + 1}
	if quick {
		widths = []int{3, d + 1}
	}
	p := exp.NewGrid("A3", "Ablation: ring width in Theorem 1.1", seeds)
	for _, w := range widths {
		p.Add(fmt.Sprintf("w=%d", w), 0, budgetCost(g.N(), a3Config(g, d, w).TotalRounds()), func(seed uint64, limit int64) exp.Result {
			cfg := a3Config(g, d, w)
			nw := radio.New(g, radio.Config{CollisionDetection: true})
			var ds radio.DoneSet
			protos := make([]*rings.Protocol, g.N())
			f := gst.NewFlat(g.N())
			for v := 0; v < g.N(); v++ {
				protos[v] = rings.New(cfg, f, graph.NodeID(v), v == 0, nil, rng.New(seed, 0xa3, uint64(v)))
				protos[v].SingleContent().DoneSet = &ds
				nw.SetProtocol(graph.NodeID(v), protos[v])
			}
			initDone(&ds, g.N(), func(v int) bool { return protos[v].Has() })
			return exp.Rounds(nw.RunUntil(lowerLimit(cfg.TotalRounds(), limit), ds.Done))
		})
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   fmt.Sprintf("A3: Theorem 1.1 ring width sweep (clusterchain-10x4, D=%d)", d),
			Comment: "wider rings amortize per-ring log^2 overheads but lengthen the (parallel) construction",
			Header:  []string{"W", "rings", "build rounds", "spread budget", "total rounds", "ok"},
		}
		for _, w := range widths {
			cfg := a3Config(g, d, w)
			runs := p.Runs(results, fmt.Sprintf("w=%d", w))
			t.AddRow(fmt.Sprint(w), fmt.Sprint(cfg.Rings()), fmt.Sprint(cfg.BuildRounds()),
				fmt.Sprint(cfg.SpreadRounds()), stats.F(exp.Mean(runs.Rounds())), runs.OK())
		}
		return t
	}
	return p.Plan
}
