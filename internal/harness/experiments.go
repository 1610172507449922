package harness

import (
	"fmt"

	"radiocast/internal/assign"
	"radiocast/internal/exp"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/gstdist"
	"radiocast/internal/radio"
	"radiocast/internal/recruit"
	"radiocast/internal/rings"
	"radiocast/internal/rng"
	"radiocast/internal/sched"
	"radiocast/internal/stats"
)

// Experiment couples an id with a cell-plan compiler. Seeds scales the
// repetition count; Quick trims the sweep for bench/CI runs. The plan
// is executed by an exp.Runner (sequential or parallel — the assembled
// table is identical either way).
type Experiment struct {
	ID    string
	Title string
	Plan  func(seeds int, quick bool) *exp.Plan
}

// Run compiles and executes the experiment on the calling goroutine —
// the historical single-core path, used by tests and benchmarks.
// cmd/radiobench drives plans through a shared exp.Runner instead.
func (e Experiment) Run(seeds int, quick bool) *stats.Table {
	tb, _ := (&exp.Runner{Parallelism: 1}).RunTable(e.Plan(seeds, quick))
	return tb
}

// All returns every experiment in EXPERIMENTS.md order, with the
// default (CI-shaped) scale-sweep configuration.
func All() []Experiment { return AllWithScale(DefaultScaleConfig()) }

// AllWithScale returns every experiment in EXPERIMENTS.md order,
// threading sc into the E19-E22 scale sweeps (cmd/radiobench builds sc
// from -scalemaxn/-scaleworkers).
func AllWithScale(sc ScaleConfig) []Experiment {
	return []Experiment{
		{"E1", "Single-message broadcast: Decay vs CR vs GST (Thm 1.1 regime)", E1Plan},
		{"E2", "Additive diameter dependence (rounds vs D)", E2Plan},
		{"E3", "Distributed GST construction (Thm 2.1)", E3Plan},
		{"E4", "Recruiting protocol (Lemma 2.3)", E4Plan},
		{"E5", "Assignment shrinkage per epoch budget (Lemma 2.4)", E5Plan},
		{"E6", "Pipelined even/odd boundary construction (Thm 2.1, §2.2.4)", E6Plan},
		{"E7", "k-message broadcast, known topology (Thm 1.2)", E7Plan},
		{"E8", "k-message broadcast, unknown topology + CD (Thm 1.3)", E8Plan},
		{"E9", "Decay is MMV (Lemma 3.2)", E9Plan},
		{"E10", "MMV GST schedule under noise (Lemma 3.3)", E10Plan},
		{"E11", "Decay phase progress (Lemma 2.2)", E11Plan},
		{"E12", "RLNC infection and decoding (Def 3.8 / Prop 3.9)", E12Plan},
		{"E13", "Robustness: loss-rate sweep (Decay vs CR vs Thm 1.1 vs Thm 1.3)", E13Plan},
		{"E14", "Robustness: jammer-budget sweep (oblivious vs adaptive)", E14Plan},
		{"E15", "Robustness: unreliable collision detection sweep", E15Plan},
		{"E16", "Robustness: radio-fault sweep (late wakeup / crash)", E16Plan},
		{"E17", "Adaptive retry: loss sweep with re-layering (Thm 1.1/1.3)", E17Plan},
		{"E18", "Adaptive retry: late-wakeup re-layering (Thm 1.1)", E18Plan},
		e19Sweep.experiment(sc),
		{"E20", "Million-node robustness: dense-engine erasure sweep (gnp)",
			func(seeds int, quick bool) *exp.Plan { return E20Plan(sc, seeds, quick) }},
		e21Sweep.experiment(sc),
		e22Sweep.experiment(sc),
		{"E23", "Mobility/churn: oneshot vs adaptive wave coverage across re-layout periods", E23Plan},
		{"A1", "Ablation: virtual-distance vs level-keyed slow slots", A1Plan},
		{"A2", "Ablation: RLNC vs store-and-forward routing", A2Plan},
		{"A3", "Ablation: ring width in Theorem 1.1", A3Plan},
	}
}

// clusterChain builds the headline workload: D ~ chain, Δ ~ clique.
func clusterChain(chain int) *graph.Graph { return graph.ClusterChain(chain, 8) }

// broadcastLimit is the default per-run round cap for the open-ended
// broadcast runners (the fixed-schedule protocols carry their own
// budgets).
const broadcastLimit = 1 << 22

// budgetCost estimates a fixed-schedule cell's work: n nodes over its
// full round budget.
func budgetCost(n int, budget int64) int64 { return int64(n) * budget }

// stackRun runs one protocol-table entry over g on the ideal channel.
// The stack is built inside every run, so cells share only the
// read-only graph.
func stackRun(entry string, g *graph.Graph, d int, o StackOpts) func(seed uint64, limit int64) exp.Result {
	return func(seed uint64, limit int64) exp.Result {
		return runOn(cellStack(entry, g, d, o), nil, seed, limit)
	}
}

// runOn runs s once over ch and returns its rounds, completion and
// channel-adversity counters.
func runOn(s Stack, ch radio.Channel, seed uint64, limit int64) exp.Result {
	r, ok, st := s.RunFrom(nil, ch, seed, limit)
	return exp.RoundsOn(r, ok, st.Dropped, st.Jammed)
}

// E1Plan is the headline comparison. The "gst" column is the
// broadcast-phase cost with structure in place (the amortized regime
// the paper motivates: CD replaces topology knowledge); th1.1 total
// includes layering + distributed construction.
func E1Plan(seeds int, quick bool) *exp.Plan {
	chains := []int{8, 16, 32, 64}
	if quick {
		chains = []int{8, 16}
	}
	protos := []string{"decay", "cr", "gst"}
	p := exp.NewGrid("E1", "Single-message broadcast: Decay vs CR vs GST (Thm 1.1 regime)", seeds)
	type chainCase struct {
		chain, n, d int
		th11        rings.Config
	}
	var cases []chainCase
	for _, chain := range chains {
		g := clusterChain(chain)
		d := graph.Eccentricity(g, 0)
		th11 := rings.DefaultConfig(g.N(), d, 0, 1)
		cases = append(cases, chainCase{chain, g.N(), d, th11})
		for _, proto := range protos {
			p.Add(fmt.Sprintf("chain=%d/%s", chain, proto), broadcastLimit, cellCost(proto, g, d, StackOpts{}), stackRun(proto, g, d, StackOpts{}))
		}
		p.AddOne(fmt.Sprintf("chain=%d/th11", chain), 1, 0, cellCost("cd", g, d, StackOpts{}), stackRun("cd", g, d, StackOpts{}))
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   "E1: single-message broadcast rounds (cluster chains, clique 8)",
			Comment: "paper: Thm 1.1 O(D+polylog) beats O(D log(n/D)+log^2 n) baselines as D grows",
			Header:  []string{"n", "D", "decay", "cr", "gst-bcast", "th11-total", "th11-build", "ok"},
		}
		for _, c := range cases {
			row := []string{fmt.Sprint(c.n), fmt.Sprint(c.d)}
			okAll := true
			for _, proto := range protos {
				runs := p.Runs(results, fmt.Sprintf("chain=%d/%s", c.chain, proto))
				okAll = okAll && runs.AllDone()
				row = append(row, stats.F(exp.Mean(runs.Rounds())))
			}
			tr := p.Runs(results, fmt.Sprintf("chain=%d/th11", c.chain))[0]
			t.AddRow(append(row, fmt.Sprint(tr.Rounds), fmt.Sprint(c.th11.BuildRounds()), fmt.Sprint(okAll && tr.Completed))...)
		}
		return t
	}
	return p.Plan
}

// E2Plan fits rounds against D for each protocol; the GST broadcast
// must have a small constant slope (additive D), the baselines a slope
// proportional to log.
func E2Plan(seeds int, quick bool) *exp.Plan {
	chains := []int{8, 16, 24, 32, 48, 64}
	if quick {
		chains = []int{8, 16, 24}
	}
	protos := []string{"decay", "cr", "gst"}
	p := exp.NewGrid("E2", "Additive diameter dependence (rounds vs D)", seeds)
	var ds []float64
	for _, chain := range chains {
		g := clusterChain(chain)
		d := graph.Eccentricity(g, 0)
		ds = append(ds, float64(d))
		for _, proto := range protos {
			p.Add(fmt.Sprintf("chain=%d/%s", chain, proto), broadcastLimit, cellCost(proto, g, d, StackOpts{}), stackRun(proto, g, d, StackOpts{}))
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   "E2: rounds-vs-D linear fits (cluster chains)",
			Comment: "paper: GST broadcast slope is O(1) per layer; Decay/CR slopes carry a log factor",
			Header:  []string{"protocol", "slope rounds/D", "intercept", "R2"},
		}
		for _, proto := range protos {
			var means []float64
			for _, chain := range chains {
				means = append(means, exp.Mean(p.Runs(results, fmt.Sprintf("chain=%d/%s", chain, proto)).Rounds()))
			}
			fit := stats.LinearFit(ds, means)
			name := proto
			if proto == "gst" {
				name = "gst-bcast"
			}
			t.AddRow(name, stats.F(fit.Slope), stats.F(fit.Intercept), stats.F(fit.R2))
		}
		return t
	}
	return p.Plan
}

// E3Plan measures the distributed construction and validates its
// output.
func E3Plan(seeds int, quick bool) *exp.Plan {
	gs := []*graph.Graph{
		graph.Grid(4, 8),
		graph.GNP(48, 0.12, 3),
		graph.ClusterChain(4, 6),
	}
	if !quick {
		gs = append(gs, graph.Grid(6, 10), graph.GNP(96, 0.07, 4))
	}
	p := exp.NewGrid("E3", "Distributed GST construction (Thm 2.1)", seeds)
	for _, g := range gs {
		d := graph.Eccentricity(g, 0)
		for _, c := range []int{1, 2} {
			cfg := gstdist.DefaultConfig(g.N(), d, c, gstdist.LayerCD, false)
			p.Add(fmt.Sprintf("graph=%s/c=%d", g.Name(), c), 0, budgetCost(g.N(), cfg.TotalRounds()),
				func(seed uint64, _ int64) exp.Result {
					valid := runConstructionValid(g, cfg, seed)
					return exp.Result{Rounds: cfg.TotalRounds(), Completed: valid, Value: b2f(valid)}
				})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "E3: distributed GST construction (Thm 2.1)",
			Comment: "rounds are the fixed O(D log^5 n) schedule (sequential boundaries); valid = Tree.Validate;\n" +
				"c is the global Θ-constant — w.h.p. correctness needs c=2 at these sizes, exactly the constants-vs-\n" +
				"failure-probability trade-off the paper's Θ(·) notation hides",
			Header: []string{"graph", "n", "D", "c", "rounds", "rounds/(D+1)L^5", "valid"},
		}
		for _, g := range gs {
			d := graph.Eccentricity(g, 0)
			for _, c := range []int{1, 2} {
				cfg := gstdist.DefaultConfig(g.N(), d, c, gstdist.LayerCD, false)
				l := float64(sched.LogN(g.N()))
				norm := float64(cfg.TotalRounds()) / (float64(d+1) * l * l * l * l * l)
				t.AddRow(g.Name(), fmt.Sprint(g.N()), fmt.Sprint(d), fmt.Sprint(c),
					fmt.Sprint(cfg.TotalRounds()), stats.F(norm),
					p.Runs(results, fmt.Sprintf("graph=%s/c=%d", g.Name(), c)).OK())
			}
		}
		return t
	}
	return p.Plan
}

// allRounds reads a run's rounds, completed or not (exp.Runs.Each).
func allRounds(r exp.Result) float64 { return float64(r.Rounds) }

// b2f is 1 for true and 0 for false: the Value of a pass/fail cell.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func runConstructionValid(g *graph.Graph, cfg gstdist.Config, seed uint64) bool {
	nw := radio.New(g, radio.Config{CollisionDetection: true})
	protos := make([]*gstdist.Protocol, g.N())
	for v := 0; v < g.N(); v++ {
		protos[v] = gstdist.New(cfg, graph.NodeID(v), v == 0, 0, rng.New(seed, 0x31, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	nw.Run(cfg.TotalRounds())
	tree, _ := gstdist.Harvest(g, 0, protos)
	return tree.Validate() == nil
}

// E4Plan verifies Lemma 2.3's Θ(log^3 n) round budget.
func E4Plan(seeds int, quick bool) *exp.Plan {
	sizes := []int{16, 32, 64}
	if !quick {
		sizes = append(sizes, 128)
	}
	p := exp.NewGrid("E4", "Recruiting protocol (Lemma 2.3)", seeds)
	for _, half := range sizes {
		params := recruit.DefaultParams(2*half, 2)
		p.Add(fmt.Sprintf("half=%d", half), 0, 0, func(seed uint64, _ int64) exp.Result {
			ok := recruitingRun(half, params, seed)
			return exp.Result{Rounds: params.Rounds(), Completed: ok, Value: b2f(ok)}
		})
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   "E4: recruiting protocol (Lemma 2.3)",
			Comment: "fixed Θ(log^3 n) schedule; success = properties (a),(b),(c) all hold",
			Header:  []string{"nodes/side", "rounds", "rounds/log^3 n", "success"},
		}
		for _, half := range sizes {
			params := recruit.DefaultParams(2*half, 2)
			l := float64(sched.LogN(2 * half))
			t.AddRow(fmt.Sprint(half), fmt.Sprint(params.Rounds()),
				stats.F(float64(params.Rounds())/(l*l*l)),
				p.Runs(results, fmt.Sprintf("half=%d", half)).OK())
		}
		return t
	}
	return p.Plan
}

func recruitingRun(half int, params recruit.Params, seed uint64) bool {
	r := rng.New(seed, 0x41)
	b := graph.NewBuilder(2 * half)
	for u := 0; u < half; u++ {
		b.AddEdge(graph.NodeID(r.Intn(half)), graph.NodeID(half+u))
		for v := 0; v < half; v++ {
			if r.Float64() < 2.0/float64(half) {
				b.AddEdge(graph.NodeID(v), graph.NodeID(half+u))
			}
		}
	}
	g := b.Build()
	nw := radio.New(g, radio.Config{})
	reds := make([]*recruit.Red, half)
	blues := make([]*recruit.Blue, half)
	for v := 0; v < half; v++ {
		reds[v] = recruit.NewRed(params, graph.NodeID(v), rng.New(seed, 0x42, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), reds[v])
	}
	for u := 0; u < half; u++ {
		blues[u] = recruit.NewBlue(params, graph.NodeID(half+u), rng.New(seed, 0x43, uint64(u)))
		nw.SetProtocol(graph.NodeID(half+u), blues[u])
	}
	nw.Run(params.Rounds())
	children := map[radio.NodeID]int{}
	for _, bl := range blues {
		if !bl.Recruited() {
			return false
		}
		children[bl.Parent()]++
	}
	for v, rd := range reds {
		want := recruit.ClassZero
		switch children[graph.NodeID(v)] {
		case 0:
		case 1:
			want = recruit.ClassOne
		default:
			want = recruit.ClassMany
		}
		if rd.Class() != want {
			return false
		}
	}
	for _, bl := range blues {
		many := children[bl.Parent()] >= 2
		if many != (bl.ParentClass() == recruit.ClassMany) {
			return false
		}
	}
	return true
}

// shrinkageCase is the shared loner-free worst case of E5: a complete
// bipartite boundary (every blue has many active reds), so only the
// brisk/lazy epoch machinery of Lemma 2.4 can make progress. Levels
// and ranks are synthetic: reds at level 0, blues at level 1, all
// blues rank 1. All fields are read-only after construction.
type shrinkageCase struct {
	g    *graph.Graph
	dist []int32
	tree *gst.Tree
}

func newShrinkageCase() *shrinkageCase {
	const nRed, nBlue = 6, 24
	b := graph.NewBuilder(nRed + nBlue)
	for v := 0; v < nRed; v++ {
		for u := 0; u < nBlue; u++ {
			b.AddEdge(graph.NodeID(v), graph.NodeID(nRed+u))
		}
	}
	g := b.Build()
	dist := make([]int32, g.N())
	tree := gst.NewTree(g, []graph.NodeID{0})
	for v := 0; v < g.N(); v++ {
		if v >= nRed {
			dist[v] = 1
		}
		tree.Rank[v] = 1
	}
	return &shrinkageCase{g: g, dist: dist, tree: tree}
}

// shrinkageCount carries one cell's (miss, total) pair to Assemble.
type shrinkageCount struct{ miss, total int }

// E5Plan varies the per-rank epoch budget and reports the unassigned
// fraction — Lemma 2.4's geometric shrinkage means the failure
// fraction collapses as epochs grow.
func E5Plan(seeds int, quick bool) *exp.Plan {
	budgets := []int{1, 2, 4, 8}
	sc := newShrinkageCase()
	p := exp.NewGrid("E5", "Assignment shrinkage per epoch budget (Lemma 2.4)", 4*seeds)
	for _, budget := range budgets {
		p.Add(fmt.Sprintf("epochs=%d", budget), 0, 0, func(seed uint64, _ int64) exp.Result {
			miss, total := assignmentMisses(sc.g, sc.dist, sc.tree, budget, seed)
			return exp.Result{
				Completed: true,
				Value:     float64(miss) / float64(maxInt(total, 1)),
				Payload:   shrinkageCount{miss, total},
			}
		})
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title:   "E5: blues left unassigned vs epoch budget (Lemma 2.4)",
			Comment: "loner-free complete-bipartite boundary; per-rank epochs = budget (not Θ(log n)); unassigned fraction must collapse",
			Header:  []string{"epochs/rank", "unassigned frac", "runs"},
		}
		for _, budget := range budgets {
			total, miss := 0, 0
			for _, r := range p.Runs(results, fmt.Sprintf("epochs=%d", budget)) {
				c, _ := r.Payload.(shrinkageCount)
				miss += c.miss
				total += c.total
			}
			frac := float64(miss) / float64(maxInt(total, 1))
			t.AddRow(fmt.Sprint(budget), stats.F(frac), fmt.Sprint(p.Seeds))
		}
		return t
	}
	_ = quick
	return p.Plan
}

// assignmentMisses runs one boundary (levels 0/1 of g) with an exact
// per-rank epoch budget and counts unassigned blues.
func assignmentMisses(g *graph.Graph, dist []int32, tree *gst.Tree, epochs int, seed uint64) (miss, total int) {
	params := assign.DefaultParams(g.N(), 1)
	params.EpochsOverride = epochs
	keep := make([]graph.NodeID, 0)
	for v := 0; v < g.N(); v++ {
		if dist[v] <= 1 {
			keep = append(keep, graph.NodeID(v))
		}
	}
	idx := make(map[graph.NodeID]graph.NodeID, len(keep))
	for i, v := range keep {
		idx[v] = graph.NodeID(i)
	}
	b := graph.NewBuilder(len(keep))
	isRed := make([]bool, len(keep))
	blueRank := make([]int32, len(keep))
	for _, v := range keep {
		for _, u := range g.Neighbors(v) {
			if lu, ok := idx[u]; ok {
				b.AddEdge(idx[v], lu)
			}
		}
		if dist[v] == 0 {
			isRed[idx[v]] = true
		} else {
			blueRank[idx[v]] = tree.Rank[v]
		}
	}
	sub := b.Build()
	nodes := make([]*assign.Node, sub.N())
	nw := radio.New(sub, radio.Config{})
	for v := 0; v < sub.N(); v++ {
		role := assign.Blue
		if isRed[v] {
			role = assign.Red
		}
		nodes[v] = assign.NewNode(params, graph.NodeID(v), role, blueRank[v], rng.New(seed, 0x51, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), nodes[v])
	}
	nw.Run(params.BoundaryRounds())
	for v, nd := range nodes {
		if isRed[v] {
			continue
		}
		total++
		if !nd.Assigned() {
			miss++
		}
	}
	return miss, total
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
