package harness

import (
	"radiocast/internal/graph"
	"radiocast/internal/gstdist"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// GSTBuildResult reports one segment-B construction run of experiment
// E6 (sequential vs pipelined boundary construction).
type GSTBuildResult struct {
	// Rounds is the round at which every node knew its parent (the
	// DoneSet completion round); equals Budget when Done is false.
	Rounds int64
	// Done reports whether every node was informed within the budget.
	Done bool
	// Valid reports whether the full GST contract held at schedule end
	// (gst.Tree.Validate over the harvested results).
	Valid bool
	// Budget is the fixed schedule length (segment B only: preset
	// levels, no virtual distances).
	Budget int64
}

// GSTPipelinedRun is the reusable E6 harness: one distributed
// segment-B construction (sequential or pipelined boundaries) over one
// graph, executing any number of seeds with zero per-seed construction
// under the reuse/reset contract. Levels are preset from a BFS so the
// measured rounds isolate the boundary-construction segment the
// pipelining changes.
type GSTPipelinedRun struct {
	cfg    gstdist.Config
	g      *graph.Graph
	nw     *radio.Network
	protos []*gstdist.Protocol
	levels []int32
	ds     radio.DoneSet
}

// NewGSTPipelinedRun builds the reusable stack. nBound is the schedule
// size bound (>= g.N(); the paper's schedules are functions of the
// bound, so E6 uses it to reach the n = 2^10 regime on tractable
// graphs), d bounds the eccentricity, c is the Θ-constant, and
// pipelined selects the Section 2.2.4 even/odd schedule.
func NewGSTPipelinedRun(g *graph.Graph, nBound, d, c int, pipelined bool) *GSTPipelinedRun {
	if nBound < g.N() {
		nBound = g.N()
	}
	cfg := gstdist.DefaultConfig(nBound, d, c, gstdist.LayerPreset, false)
	cfg.PipelinedBoundaries = pipelined
	bfs := graph.BFS(g, 0)
	r := &GSTPipelinedRun{
		cfg:    cfg,
		g:      g,
		nw:     radio.New(g, radio.Config{}),
		protos: make([]*gstdist.Protocol, g.N()),
		levels: bfs.Dist,
	}
	for v := 0; v < g.N(); v++ {
		r.protos[v] = gstdist.New(cfg, graph.NodeID(v), v == 0, r.levels[v], rng.New())
		r.protos[v].DoneSet = &r.ds
	}
	return r
}

// Run executes one seeded construction: it measures the round at which
// every node knows its parent, then finishes the fixed schedule and
// validates the full GST contract.
func (r *GSTPipelinedRun) Run(seed uint64) GSTBuildResult {
	r.nw.Reset()
	for v, p := range r.protos {
		p.Reset(v == 0, r.levels[v])
		rng.Reseed(p.Rng(), seed, 0x60, uint64(v))
		r.nw.SetProtocol(graph.NodeID(v), p)
	}
	initDone(&r.ds, len(r.protos), func(v int) bool { return r.protos[v].Informed() })
	budget := r.cfg.TotalRounds()
	rounds, done := r.nw.RunUntil(budget, r.ds.Done)
	// Ranks and mop-up broadcasts continue past the completion round;
	// validation needs the full schedule.
	r.nw.Run(budget)
	tree, _ := gstdist.Harvest(r.g, 0, r.protos)
	return GSTBuildResult{
		Rounds: rounds,
		Done:   done,
		Valid:  tree.Validate() == nil,
		Budget: budget,
	}
}
