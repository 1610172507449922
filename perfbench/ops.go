package main

// The three in-process workloads. Each composes the library layers the
// way the scale experiments do (internal/harness/scale.go), one public
// call per layer, so that every call can sit inside its own span.

import (
	"fmt"

	"radiocast/internal/beep"
	"radiocast/internal/channel"
	"radiocast/internal/cr"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// engineWorkers is the dense engine's worker count in every op.
const engineWorkers = 2

// roundLimit bounds every run; no op at these sizes comes near it.
const roundLimit = 1 << 24

// output is what one op must reproduce exactly.
type output struct {
	Rounds     int64 `json:"rounds"`
	Completed  bool  `json:"completed"`
	Deliveries int64 `json:"deliveries"`
	Covered    int   `json:"covered"`
}

// layerNs is one traced op's time by layer call, in nanoseconds.
type layerNs struct {
	graphBuild, graphBFS, gstConstruct, gstFlatten int64
	protoNew, channelNew, radioNew, radioLoop      int64
	calls                                          callTimes
}

// opRun is what one op returns to the measuring loop.
type opRun struct {
	out   output
	n     int
	edges int64 // undirected edges of the graph built by the op (0 if none)
	stats radio.Stats
	c     counts
	ns    layerNs
	keep  any // the op's live structures, held until its heap is measured
}

// opKind is one kind of op of a workload.
type opKind struct {
	name  string
	stack string // decay, cr, wave or mmv
	lossy bool   // the wave on a lossy channel may stop short of full coverage
	run   func(t *tracer, variant int) opRun
}

// variants is the number of input variants each op kind cycles
// through: pass p of a run uses variant p mod variants, so a run
// averages over inputs as well as over time.
const variants = 16

// stackRun is a built protocol stack, ready to hand to the engine.
type stackRun struct {
	p       radio.DenseProtocol
	done    func() bool
	covered func() int
	limit   int64
	cd      bool
}

// newStack builds one dense stack as runDenseCell does. ecc is the
// source eccentricity (used by cr and the wave); lossy widens the
// wave's horizon for a lossy channel.
func newStack(g *graph.Graph, stack string, seed uint64, ecc int, lossy bool) stackRun {
	switch stack {
	case "cr":
		p := cr.NewDense(g, cr.NewParams(g.N(), ecc), seed, 0)
		return stackRun{p: p, done: p.Done, covered: p.InformedCount, limit: roundLimit}
	case "wave":
		horizon := int64(ecc)
		if lossy {
			horizon = 4*int64(ecc) + 64
		}
		w := beep.NewDenseWave(g, 0, horizon)
		return stackRun{p: w, done: w.Done, covered: w.TriggeredCount, limit: horizon, cd: true}
	default: // decay
		p := decay.NewDense(g, seed, 0)
		return stackRun{p: p, done: p.Done, covered: p.InformedCount, limit: roundLimit}
	}
}

// runEngine builds the dense engine over s and runs it to completion,
// inside radio.new and radio.loop spans. When tracing, the protocol
// and channel are wrapped in a probe.
func runEngine(t *tracer, g *graph.Graph, s stackRun, ch radio.Channel, r *opRun) {
	cfg := radio.Config{Workers: engineWorkers, CollisionDetection: s.cd}
	proto, done := s.p, s.done
	var pr *probe
	if t.on {
		offsets, _ := g.CSR()
		pr = newProbe(t, s.p, ch, offsets, engineWorkers)
		proto, done = pr, pr.done(s.done)
		if ch != nil {
			ch = pr
		}
	}
	cfg.Channel = ch
	var eng *radio.Dense
	r.ns.radioNew = t.span("radio.new", func() { eng = radio.NewDense(g, cfg, proto) })
	var rounds int64
	var ok bool
	r.ns.radioLoop = t.span("radio.loop", func() { rounds, ok = eng.RunUntil(s.limit, done) })
	eng.Close()
	r.stats = eng.Stats()
	r.out = output{Rounds: rounds, Completed: ok, Deliveries: r.stats.Deliveries, Covered: s.covered()}
	r.n = g.N()
	if pr != nil {
		r.c, r.ns.calls = pr.c, pr.times
	}
}

// sizes holds every workload dimension, so the self-test can shrink
// them all at once.
type sizes struct {
	gstSide  int // sweep-gst: grid side, cluster chain length and clique size
	gnpN     int // sweep-gnp node count
	adverseN int // adverse-gnp node count
	// daemon-dense: cluster chain length and clique size, grid side.
	daemonCluster, daemonGrid int
}

var fullSizes = sizes{gstSide: 150, gnpN: 200_000, adverseN: 100_000, daemonCluster: 100, daemonGrid: 300}

var smallSizes = sizes{gstSide: 12, gnpN: 2_000, adverseN: 2_000, daemonCluster: 8, daemonGrid: 16}

// gnpStream is the G(n, 16/n) edge stream of E19/E20.
func gnpStream(n int, seed uint64) graph.EdgeStream {
	return graph.StreamGNP(n, 16/float64(n), seed)
}

// sweepGST is one E21 cell per op, built from scratch: a streaming
// grid or cluster chain, gst.Construct + gst.Flatten, the MMV schedule
// and stack (quiet or noised), then the dense engine.
func sweepGST(sz sizes, seed uint64) []opKind {
	var kinds []opKind
	for _, shape := range []string{"grid", "cluster"} {
		for _, noise := range []bool{false, true} {
			shape, noise := shape, noise
			name := "gst/" + shape
			if noise {
				name = "gst-noise/" + shape
			}
			kind := uint64(len(kinds))
			kinds = append(kinds, opKind{name: name, stack: "mmv", run: func(t *tracer, v int) opRun {
				var r opRun
				pseed := rng.Mix(seed, kind, uint64(v))
				var g *graph.Graph
				r.ns.graphBuild = t.span("graph.build", func() {
					if shape == "grid" {
						g = graph.FromStream(graph.StreamGrid(sz.gstSide, sz.gstSide))
					} else {
						g = graph.FromStream(graph.StreamClusterChain(sz.gstSide, sz.gstSide))
					}
				})
				var tree *gst.Tree
				r.ns.gstConstruct = t.span("gst.construct", func() { tree = gst.Construct(g, 0) })
				var flat *gst.Flat
				r.ns.gstFlatten = t.span("gst.flatten", func() { flat = gst.Flatten(tree) })
				var s stackRun
				r.ns.protoNew = t.span("proto.new", func() {
					p := mmv.NewDense(g, flat, mmv.NewSchedule(g.N()), pseed, 0, noise)
					s = stackRun{p: p, done: p.Done, covered: p.InformedCount, limit: roundLimit}
				})
				runEngine(t, g, s, nil, &r)
				r.edges = int64(g.M())
				r.keep = []any{g, flat, s.p}
				return r
			}})
		}
	}
	return kinds
}

// sweepGNP is one E19 cell per op at a fixed n: a connected streaming
// G(n, 16/n) drawn afresh for each variant, the source eccentricity for cr and the wave, the stack,
// then the dense engine on the ideal channel.
func sweepGNP(sz sizes, seed uint64) []opKind {
	var kinds []opKind
	for i, stack := range []string{"decay", "cr", "wave"} {
		stack, kind := stack, uint64(i)
		kinds = append(kinds, opKind{name: stack + "/gnp", stack: stack, run: func(t *tracer, v int) opRun {
			var r opRun
			gseed, pseed := rng.Mix(seed, 0xe19, uint64(v)), rng.Mix(seed, kind, uint64(v))
			var g *graph.Graph
			r.ns.graphBuild = t.span("graph.build", func() { g = graph.BuildConnected(gnpStream(sz.gnpN, gseed), gseed) })
			ecc := 0
			if stack != "decay" {
				r.ns.graphBFS = t.span("graph.bfs", func() { ecc = graph.Eccentricity(g, 0) })
			}
			var s stackRun
			r.ns.protoNew = t.span("proto.new", func() { s = newStack(g, stack, pseed, ecc, false) })
			runEngine(t, g, s, nil, &r)
			r.edges = int64(g.M())
			r.keep = []any{g, s.p}
			return r
		}})
	}
	return kinds
}

// adverseLosses is the erasure grid of adverse-gnp.
var adverseLosses = []float64{0.1, 0.3}

// adverseGraph is adverse-gnp's set-up: E20's connected G(n, 16/n)
// and its source eccentricity.
func adverseGraph(sz sizes, seed uint64) (*graph.Graph, int) {
	gseed := rng.Mix(seed, 0xe20)
	g := graph.BuildConnected(gnpStream(sz.adverseN, gseed), gseed)
	return g, graph.Eccentricity(g, 0)
}

// adverseGNP is one E20 cell per op on a graph built in set-up: the
// stack, a per-link erasure channel, then the dense engine on its
// channel-adverse path.
func adverseGNP(g *graph.Graph, ecc int, seed uint64) []opKind {
	var kinds []opKind
	for _, stack := range []string{"decay", "cr", "wave"} {
		for _, loss := range adverseLosses {
			stack, loss := stack, loss
			kind := uint64(len(kinds))
			kinds = append(kinds, opKind{
				name: fmt.Sprintf("%s/loss=%g", stack, loss), stack: stack, lossy: stack == "wave",
				run: func(t *tracer, v int) opRun {
					var r opRun
					pseed := rng.Mix(seed, kind, uint64(v))
					var s stackRun
					r.ns.protoNew = t.span("proto.new", func() { s = newStack(g, stack, pseed, ecc, true) })
					var ch radio.Channel
					r.ns.channelNew = t.span("channel.new", func() { ch = channel.NewErasure(loss, rng.Mix(pseed, 0xe20)) })
					runEngine(t, g, s, ch, &r)
					r.keep = s.p
					return r
				}})
		}
	}
	return kinds
}
