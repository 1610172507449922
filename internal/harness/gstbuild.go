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
// on a sparse stack capped at the fixed schedule. Levels are preset
// from a BFS so the measured rounds isolate the boundary-construction
// segment the pipelining changes.
type GSTPipelinedRun struct {
	s      *sparseStack
	g      *graph.Graph
	protos []*gstdist.Protocol
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
	levels := graph.BFS(g, 0).Dist
	s := newSparse(g, false, 0)
	s.own = cfg.TotalRounds()
	protos := make([]*gstdist.Protocol, g.N())
	for v := range protos {
		protos[v] = gstdist.New(cfg, graph.NodeID(v), v == 0, levels[v], rng.New())
		protos[v].DoneSet = &s.ds
	}
	s.done = func(v int) bool { return protos[v].Informed() }
	s.reset = func(v int, source bool, seed uint64, _ int64) radio.Protocol {
		p := protos[v]
		p.Reset(source, levels[v])
		rng.Reseed(p.Rng(), seed, 0x60, uint64(v))
		return p
	}
	return &GSTPipelinedRun{s: s, g: g, protos: protos}
}

// Run executes one seeded construction: it measures the round at which
// every node knows its parent, then finishes the fixed schedule and
// validates the full GST contract.
func (r *GSTPipelinedRun) Run(seed uint64) GSTBuildResult {
	rounds, done, _ := r.s.RunFrom(nil, nil, seed, 0)
	// Ranks and mop-up broadcasts continue past the completion round;
	// validation needs the full schedule.
	r.s.nw.Run(r.s.own)
	tree, _ := gstdist.Harvest(r.g, 0, r.protos)
	return GSTBuildResult{
		Rounds: rounds,
		Done:   done,
		Valid:  tree.Validate() == nil,
		Budget: r.s.own,
	}
}
