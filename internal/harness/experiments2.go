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
	p := &exp.Plan{ID: "E7", Title: "k-message broadcast, known topology (Thm 1.2)"}
	for _, k := range ks {
		for s := 0; s < seeds; s++ {
			p.Cells = append(p.Cells, exp.Cell{
				Key:        exp.Key{Experiment: "E7", Config: fmt.Sprintf("k=%d", k), Seed: uint64(s)},
				RoundLimit: broadcastLimit,
				Cost:       baselineCost(g, d) + budgetCost(g.N(), int64(k*l)),
				Run: func(limit int64) exp.Result {
					r, ok, _ := cellStack("k-known", g, d, StackOpts{K: k}).RunFrom(nil, nil, uint64(s), limit)
					return exp.Rounds(r, ok)
				},
			})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		t := &stats.Table{
			Title:   "E7: k-message broadcast, known topology (Thm 1.2)",
			Comment: fmt.Sprintf("grid-8x8, D=%d, log n=%d; paper: O(D + k log n + log^2 n) — linear in k with slope Θ(log n)", d, l),
			Header:  []string{"k", "mean rounds", "rounds/k", "ok"},
		}
		var xs, ys []float64
		for _, k := range ks {
			var rs []float64
			okAll := true
			for s := 0; s < seeds; s++ {
				r := idx[exp.Key{Experiment: "E7", Config: fmt.Sprintf("k=%d", k), Seed: uint64(s)}]
				if !r.Completed {
					okAll = false
					continue
				}
				rs = append(rs, float64(r.Rounds))
			}
			m := stats.Summarize(rs, 0, 0).Mean
			xs = append(xs, float64(k))
			ys = append(ys, m)
			t.AddRow(fmt.Sprint(k), stats.F(m), stats.F(m/float64(k)), fmt.Sprint(okAll))
		}
		fit := stats.LinearFit(xs, ys)
		t.AddRow("fit", fmt.Sprintf("slope=%s/k", stats.F(fit.Slope)),
			fmt.Sprintf("slope/logn=%s", stats.F(fit.Slope/float64(l))),
			fmt.Sprintf("R2=%s", stats.F(fit.R2)))
		return t
	}
	return p
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
	p := &exp.Plan{ID: "E8", Title: "k-message broadcast, unknown topology + CD (Thm 1.3)"}
	for _, c := range cases {
		d := graph.Eccentricity(c.g, 0)
		budget := rings.DefaultConfig(c.g.N(), d, c.k, 1).TotalRounds()
		for s := 0; s < seeds; s++ {
			p.Cells = append(p.Cells, exp.Cell{
				Key:  exp.Key{Experiment: "E8", Config: fmt.Sprintf("graph=%s/k=%d", c.g.Name(), c.k), Seed: uint64(s)},
				Cost: budgetCost(c.g.N(), budget),
				Run: func(int64) exp.Result {
					r, ok, _ := cellStack("k-cd", c.g, d, StackOpts{K: c.k}).RunFrom(nil, nil, uint64(s), 0)
					return exp.Rounds(r, ok)
				},
			})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		t := &stats.Table{
			Title:   "E8: k-message broadcast, unknown topology + CD (Thm 1.3)",
			Comment: "full pipeline: wave + parallel ring GSTs + stride-2 batch pipeline with RLNC and fountain handoffs",
			Header:  []string{"graph", "n", "D", "k", "rings", "batches", "rounds", "budget", "ok"},
		}
		for _, c := range cases {
			d := graph.Eccentricity(c.g, 0)
			cfg := rings.DefaultConfig(c.g.N(), d, c.k, 1)
			okCount := 0
			var rs []float64
			for s := 0; s < seeds; s++ {
				r := idx[exp.Key{Experiment: "E8", Config: fmt.Sprintf("graph=%s/k=%d", c.g.Name(), c.k), Seed: uint64(s)}]
				if r.Completed {
					okCount++
					rs = append(rs, float64(r.Rounds))
				}
			}
			t.AddRow(c.g.Name(), fmt.Sprint(c.g.N()), fmt.Sprint(d), fmt.Sprint(c.k),
				fmt.Sprint(cfg.Rings()), fmt.Sprint(cfg.Batches()),
				stats.F(stats.Summarize(rs, 0, 0).Mean), fmt.Sprint(cfg.TotalRounds()),
				fmt.Sprintf("%d/%d", okCount, seeds))
		}
		return t
	}
	return p
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
	p := &exp.Plan{ID: "E9", Title: "Decay is MMV (Lemma 3.2)"}
	for _, g := range gs {
		cost := 3 * baselineCost(g, graph.Eccentricity(g, 0))
		for _, mode := range jamModes {
			noising := mode == "jam"
			for s := 0; s < seeds; s++ {
				p.Cells = append(p.Cells, exp.Cell{
					Key:  exp.Key{Experiment: "E9", Config: fmt.Sprintf("graph=%s/%s", g.Name(), mode), Seed: uint64(s)},
					Cost: cost,
					Run: func(int64) exp.Result {
						return exp.Rounds(runDecayMMV(g, noising, uint64(s)))
					},
				})
			}
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		t := &stats.Table{
			Title:   "E9: Decay is MMV (Lemma 3.2)",
			Comment: "jamming: nodes without the message transmit noise in their prompted slots",
			Header:  []string{"graph", "silent rounds", "jammed rounds", "ratio", "ok"},
		}
		for _, g := range gs {
			addJamRow(t, idx, "E9", g.Name(), seeds)
		}
		return t
	}
	return p
}

// addJamRow folds one graph's silent/jammed cell pairs into a table
// row; a seed counts only when both variants completed (E9/E10 share
// this pairing rule).
func addJamRow(t *stats.Table, idx map[exp.Key]exp.Result, id, name string, seeds int) {
	var silent, jammed []float64
	okAll := true
	for s := 0; s < seeds; s++ {
		a := idx[exp.Key{Experiment: id, Config: fmt.Sprintf("graph=%s/silent", name), Seed: uint64(s)}]
		b := idx[exp.Key{Experiment: id, Config: fmt.Sprintf("graph=%s/jam", name), Seed: uint64(s)}]
		if !a.Completed || !b.Completed {
			okAll = false
			continue
		}
		silent = append(silent, float64(a.Rounds))
		jammed = append(jammed, float64(b.Rounds))
	}
	ms, mj := stats.Summarize(silent, 0, 0).Mean, stats.Summarize(jammed, 0, 0).Mean
	t.AddRow(name, stats.F(ms), stats.F(mj), stats.F(mj/ms), fmt.Sprint(okAll))
}

func runDecayMMV(g *graph.Graph, noising bool, seed uint64) (int64, bool) {
	levels := graph.BFS(g, 0)
	nw := radio.New(g, radio.Config{})
	var ds DoneSet
	protos := make([]*decay.MMV, g.N())
	for v := 0; v < g.N(); v++ {
		protos[v] = decay.NewMMV(g.N(), int(levels.Dist[v]), noising, decay.Message{Data: 2}, rng.New(seed, 0x91, uint64(v)))
		protos[v].DoneSet = &ds
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	initDone(&ds, g.N(), func(v int) bool { return protos[v].Has() })
	l := int64(sched.LogN(g.N()))
	limit := 200 * (int64(levels.MaxDist)*l + l*l)
	return nw.RunUntil(limit, ds.Done)
}

// E10Plan reproduces Lemma 3.3: the GST schedule under jamming.
func E10Plan(seeds int, quick bool) *exp.Plan {
	gs := []*graph.Graph{graph.Grid(8, 8), graph.Path(64)}
	if !quick {
		gs = append(gs, graph.GNP(96, 0.06, 7))
	}
	p := &exp.Plan{ID: "E10", Title: "MMV GST schedule under noise (Lemma 3.3)"}
	for _, g := range gs {
		d := graph.Eccentricity(g, 0)
		cost := baselineCost(g, d)
		for _, mode := range jamModes {
			noising := mode == "jam"
			for s := 0; s < seeds; s++ {
				p.Cells = append(p.Cells, exp.Cell{
					Key:        exp.Key{Experiment: "E10", Config: fmt.Sprintf("graph=%s/%s", g.Name(), mode), Seed: uint64(s)},
					RoundLimit: broadcastLimit,
					Cost:       cost,
					Run: func(limit int64) exp.Result {
						r, ok, _ := cellStack("gst", g, d, StackOpts{Noise: noising}).RunFrom(nil, nil, uint64(s), limit)
						return exp.Rounds(r, ok)
					},
				})
			}
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		t := &stats.Table{
			Title:   "E10: MMV GST schedule under noise (Lemma 3.3)",
			Comment: "same schedule, message-less nodes jam their slots; fast waves stay collision-free (Lemma 3.5 is a test invariant)",
			Header:  []string{"graph", "silent rounds", "jammed rounds", "ratio", "ok"},
		}
		for _, g := range gs {
			addJamRow(t, idx, "E10", g.Name(), seeds)
		}
		return t
	}
	return p
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
	p := &exp.Plan{ID: "E11", Title: "Decay phase progress (Lemma 2.2)"}
	for _, deg := range degrees {
		for s := 0; s < seeds; s++ {
			p.Cells = append(p.Cells, exp.Cell{
				Key: exp.Key{Experiment: "E11", Config: fmt.Sprintf("deg=%d", deg), Seed: uint64(s)},
				Run: func(int64) exp.Result {
					n := deg + 2
					l := sched.LogN(n)
					succ := 0
					for trial := s * e11Block; trial < (s+1)*e11Block; trial++ {
						g := graph.Star(deg + 1)
						nw := radio.New(g, radio.Config{})
						probe := &radio.Silent{}
						nw.SetProtocol(0, probe)
						for v := 1; v <= deg; v++ {
							nw.SetProtocol(graph.NodeID(v),
								decay.NewBroadcast(n, true, decay.Message{}, rng.New(uint64(trial), 0xb1, uint64(v), uint64(deg))))
						}
						nw.Run(int64(l))
						if probe.Packets > 0 {
							succ++
						}
					}
					return exp.Value(float64(succ))
				},
			})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		trials := e11Block * seeds
		t := &stats.Table{
			Title:   "E11: per-phase Decay progress probability (Lemma 2.2)",
			Comment: "star center listening, all leaves participating; paper bound: >= 1/8 per phase",
			Header:  []string{"degree", "success rate", "trials"},
		}
		for _, deg := range degrees {
			succ := 0.0
			for s := 0; s < seeds; s++ {
				succ += idx[exp.Key{Experiment: "E11", Config: fmt.Sprintf("deg=%d", deg), Seed: uint64(s)}].Value
			}
			t.AddRow(fmt.Sprint(deg), stats.F(succ/float64(trials)), fmt.Sprint(trials))
		}
		return t
	}
	return p
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
	p := &exp.Plan{ID: "E12", Title: "RLNC infection and decoding (Def 3.8 / Prop 3.9)"}
	for _, k := range ks {
		p.Cells = append(p.Cells, exp.Cell{
			Key: exp.Key{Experiment: "E12", Config: fmt.Sprintf("k=%d", k), Seed: 0},
			Run: func(int64) exp.Result {
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
			},
		})
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		t := &stats.Table{
			Title:   "E12: RLNC infection and decoding (Def 3.8 / Prop 3.9)",
			Comment: "transfer = P[random packet from an infected sender infects receiver]; overhead = packets beyond k until decode",
			Header:  []string{"k", "transfer rate", "mean overhead"},
		}
		for _, k := range ks {
			m, _ := idx[exp.Key{Experiment: "E12", Config: fmt.Sprintf("k=%d", k), Seed: 0}].Payload.(rlncMeasure)
			t.AddRow(fmt.Sprint(k), stats.F(float64(m.transfer)/float64(m.trials)),
				stats.F(float64(m.overheadSum)/float64(m.runs)))
		}
		return t
	}
	return p
}

// a1Run executes one A1 cell: the MMV broadcast under jamming with
// either virtual-distance or level-keyed slow slots. The GST and
// schedule are rebuilt per cell (deterministic) so cells share nothing
// mutable.
func a1Run(g *graph.Graph, levelKeyed bool, seed uint64) (int64, bool) {
	tree := gst.Construct(g, 0)
	infos := mmv.InfoFromTree(tree)
	s := mmv.NewSchedule(g.N())
	nw := radio.New(g, radio.Config{})
	var ds DoneSet
	contents := make([]*mmv.SingleMessage, g.N())
	for v := 0; v < g.N(); v++ {
		contents[v] = mmv.NewSingleMessage(v == 0, decay.Message{})
		contents[v].DoneSet = &ds
		var p *mmv.Protocol
		if levelKeyed {
			p = mmv.NewLevelKeyed(s, infos[v], contents[v], true, rng.New(seed, 0xa1, uint64(v)))
		} else {
			p = mmv.New(s, infos[v], contents[v], true, rng.New(seed, 0xa1, uint64(v)))
		}
		nw.SetProtocol(graph.NodeID(v), p)
	}
	initDone(&ds, g.N(), func(v int) bool { return contents[v].Done() })
	return nw.RunUntil(1<<18, ds.Done)
}

// A1Plan compares the MMV schedule's virtual-distance slow slots
// against the level-keyed slots of [7,19] under jamming.
func A1Plan(seeds int, quick bool) *exp.Plan {
	gs := []*graph.Graph{graph.Grid(8, 8), graph.GNP(80, 0.08, 5)}
	if quick {
		gs = gs[:1]
	}
	variants := []string{"vdist", "level"}
	p := &exp.Plan{ID: "A1", Title: "Ablation: virtual-distance vs level-keyed slow slots"}
	for _, g := range gs {
		cost := 2 * baselineCost(g, graph.Eccentricity(g, 0))
		for _, variant := range variants {
			levelKeyed := variant == "level"
			for s := 0; s < seeds; s++ {
				p.Cells = append(p.Cells, exp.Cell{
					Key:  exp.Key{Experiment: "A1", Config: fmt.Sprintf("graph=%s/%s", g.Name(), variant), Seed: uint64(s)},
					Cost: cost,
					Run: func(int64) exp.Result {
						return exp.Rounds(a1Run(g, levelKeyed, uint64(s)))
					},
				})
			}
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		t := &stats.Table{
			Title: "A1: virtual-distance vs level-keyed slow slots (jamming on)",
			Comment: "informational: the level-keyed schedule is the [7,19] style whose multi-message correctness was disproved ([22]);\n" +
				"on benign workloads both complete — the paper's change buys *provable* MMV bounds (Lemma 3.3), not universal speedup",
			Header: []string{"graph", "vdist rounds", "level rounds", "vdist ok", "level ok"},
		}
		for _, g := range gs {
			var vd, lv []float64
			vdOK, lvOK := 0, 0
			for s := 0; s < seeds; s++ {
				if r := idx[exp.Key{Experiment: "A1", Config: fmt.Sprintf("graph=%s/vdist", g.Name()), Seed: uint64(s)}]; r.Completed {
					vd = append(vd, float64(r.Rounds))
					vdOK++
				}
				if r := idx[exp.Key{Experiment: "A1", Config: fmt.Sprintf("graph=%s/level", g.Name()), Seed: uint64(s)}]; r.Completed {
					lv = append(lv, float64(r.Rounds))
					lvOK++
				}
			}
			t.AddRow(g.Name(),
				stats.F(stats.Summarize(vd, 0, 0).Mean), stats.F(stats.Summarize(lv, 0, 0).Mean),
				fmt.Sprintf("%d/%d", vdOK, seeds), fmt.Sprintf("%d/%d", lvOK, seeds))
		}
		return t
	}
	return p
}

// A2Plan quantifies the coding advantage ([11]'s gap).
func A2Plan(seeds int, quick bool) *exp.Plan {
	ks := []int{4, 8, 16}
	if quick {
		ks = ks[:2]
	}
	g := graph.Grid(6, 6)
	d := graph.Eccentricity(g, 0)
	a2Cost := baselineCost(g, d)
	variants := []string{"rlnc", "routing"}
	p := &exp.Plan{ID: "A2", Title: "Ablation: RLNC vs store-and-forward routing"}
	for _, k := range ks {
		for _, variant := range variants {
			coded := variant == "rlnc"
			for s := 0; s < seeds; s++ {
				p.Cells = append(p.Cells, exp.Cell{
					Key:        exp.Key{Experiment: "A2", Config: fmt.Sprintf("k=%d/%s", k, variant), Seed: uint64(s)},
					RoundLimit: broadcastLimit,
					Cost:       a2Cost * int64(k),
					Run: func(limit int64) exp.Result {
						if coded {
							r, ok, _ := cellStack("k-known", g, d, StackOpts{K: k}).RunFrom(nil, nil, uint64(s), limit)
							return exp.Rounds(r, ok)
						}
						return exp.Rounds(RunGSTMultiRouting(g, k, uint64(s), limit))
					},
				})
			}
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		t := &stats.Table{
			Title:   "A2: RLNC vs store-and-forward routing (grid-6x6)",
			Comment: "same MMV schedule, coded vs uncoded content; coding removes the coupon-collector tail",
			Header:  []string{"k", "rlnc rounds", "routing rounds", "routing/rlnc"},
		}
		for _, k := range ks {
			var cod, rou []float64
			for s := 0; s < seeds; s++ {
				if r := idx[exp.Key{Experiment: "A2", Config: fmt.Sprintf("k=%d/rlnc", k), Seed: uint64(s)}]; r.Completed {
					cod = append(cod, float64(r.Rounds))
				}
				if r := idx[exp.Key{Experiment: "A2", Config: fmt.Sprintf("k=%d/routing", k), Seed: uint64(s)}]; r.Completed {
					rou = append(rou, float64(r.Rounds))
				}
			}
			mc, mr := stats.Summarize(cod, 0, 0).Mean, stats.Summarize(rou, 0, 0).Mean
			t.AddRow(fmt.Sprint(k), stats.F(mc), stats.F(mr), stats.F(mr/mc))
		}
		return t
	}
	return p
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
	p := &exp.Plan{ID: "A3", Title: "Ablation: ring width in Theorem 1.1"}
	for _, w := range widths {
		for s := 0; s < seeds; s++ {
			p.Cells = append(p.Cells, exp.Cell{
				Key:  exp.Key{Experiment: "A3", Config: fmt.Sprintf("w=%d", w), Seed: uint64(s)},
				Cost: budgetCost(g.N(), a3Config(g, d, w).TotalRounds()),
				Run: func(int64) exp.Result {
					cfg := a3Config(g, d, w)
					nw := radio.New(g, radio.Config{CollisionDetection: true})
					var ds DoneSet
					protos := make([]*rings.Protocol, g.N())
					for v := 0; v < g.N(); v++ {
						protos[v] = rings.New(cfg, graph.NodeID(v), v == 0, nil, rng.New(uint64(s), 0xa3, uint64(v)))
						protos[v].SingleContent().DoneSet = &ds
						nw.SetProtocol(graph.NodeID(v), protos[v])
					}
					initDone(&ds, g.N(), func(v int) bool { return protos[v].Has() })
					r, ok := nw.RunUntil(cfg.TotalRounds(), ds.Done)
					return exp.Rounds(r, ok)
				},
			})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		t := &stats.Table{
			Title:   fmt.Sprintf("A3: Theorem 1.1 ring width sweep (clusterchain-10x4, D=%d)", d),
			Comment: "wider rings amortize per-ring log^2 overheads but lengthen the (parallel) construction",
			Header:  []string{"W", "rings", "build rounds", "spread budget", "total rounds", "ok"},
		}
		for _, w := range widths {
			cfg := a3Config(g, d, w)
			okCount := 0
			var rs []float64
			for s := 0; s < seeds; s++ {
				if r := idx[exp.Key{Experiment: "A3", Config: fmt.Sprintf("w=%d", w), Seed: uint64(s)}]; r.Completed {
					okCount++
					rs = append(rs, float64(r.Rounds))
				}
			}
			t.AddRow(fmt.Sprint(w), fmt.Sprint(cfg.Rings()), fmt.Sprint(cfg.BuildRounds()),
				fmt.Sprint(cfg.SpreadRounds()), stats.F(stats.Summarize(rs, 0, 0).Mean),
				fmt.Sprintf("%d/%d", okCount, seeds))
		}
		return t
	}
	return p
}
