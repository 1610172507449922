// Package radiocast is a from-scratch implementation of
//
//	Ghaffari, Haeupler, Khabbazian:
//	"Randomized Broadcast in Radio Networks with Collision Detection"
//	(PODC 2013; full version arXiv:1404.0780),
//
// together with the synchronous radio network simulator, the
// substrates (Decay, gathering spanning trees, recruiting, random
// linear network coding), and the baselines the paper compares
// against.
//
// This package is the public facade: one call per headline result.
//
//   - BroadcastCD — Theorem 1.1: single-message broadcast, unknown
//     topology, collision detection, O(D + polylog n) rounds.
//   - BroadcastKnownTopology — the [7]-style O(D + log^2 n) broadcast
//     atop a centrally constructed GST (the known-structure regime).
//   - BroadcastK — Theorem 1.2: k messages, known topology, RLNC,
//     O(D + k log n + log^2 n) rounds.
//   - BroadcastKCD — Theorem 1.3: k messages, unknown topology with
//     collision detection, O(D + k log n + polylog n) rounds.
//   - BuildGST / BuildGSTDistributed — gathering spanning trees,
//     centralized ([7]) and distributed (Theorem 2.1 + Lemma 3.10).
//   - DecayBroadcast / CRBroadcast — the prior-art baselines.
//
// Every broadcast accepts an adversarial channel via Options.Channel
// (packet loss, jamming, unreliable collision detection, radio
// faults — see ErasureChannel, NoisyCDChannel, JammerChannel,
// FaultChannel, StackChannels); nil is the paper's ideal channel.
// Options.Adaptive additionally wraps the run in the loss-adaptive
// retry layer (internal/adapt): the schedule is re-executed in epochs,
// each re-layering from every already-informed radio, until the
// broadcast completes — closing the completion cliffs the one-shot
// theorem schedules hit under loss and late radio wakeups.
//
// All functions are deterministic given (graph, options, seed). See
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction results.
package radiocast

import (
	"fmt"

	"radiocast/internal/adapt"
	"radiocast/internal/bitvec"
	"radiocast/internal/channel"
	"radiocast/internal/geo"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/gstdist"
	"radiocast/internal/harness"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/rings"
	"radiocast/internal/rlnc"
	"radiocast/internal/rng"
)

// Graph re-exports the workload graph type; construct instances with
// the generators below or graph.NewBuilder via BuildGraph.
type Graph = graph.Graph

// NodeID identifies a node (0..N-1).
type NodeID = graph.NodeID

// Generators for common workloads (see internal/graph for the full
// set).
var (
	// NewPath returns the n-node path (diameter n-1).
	NewPath = graph.Path
	// NewGrid returns the rows x cols grid.
	NewGrid = graph.Grid
	// NewClusterChain returns a chain of cliques — the workload where
	// collision-detection broadcast wins by the largest factor.
	NewClusterChain = graph.ClusterChain
	// NewUnitDisk returns a random unit-disk (sensor field) graph.
	NewUnitDisk = graph.UnitDisk
	// NewGNP returns a connected Erdős–Rényi sample.
	NewGNP = graph.GNP
)

// Geometric layouts (internal/geo): deterministic seeded point sets in
// the unit square whose unit-disk graphs become engine workloads via
// UnitDiskGraph, whose positions feed RangeErasureChannel, and whose
// motion is driven by NewWaypoint.
var (
	// NewUniformLayout returns n points i.i.d. uniform in the unit
	// square.
	NewUniformLayout = geo.Uniform
	// NewClusteredLayout returns n points grouped around `clusters`
	// uniformly placed centers with the given spread.
	NewClusteredLayout = geo.Clustered
	// NewWaypoint attaches a random-waypoint mobility stepper to a
	// layout (Step/Advance mutate positions in place).
	NewWaypoint = geo.NewWaypoint
	// GeoConnectivityRadius is the radius at which a uniform layout's
	// unit-disk graph is connected w.h.p.
	GeoConnectivityRadius = geo.ConnectivityRadius
)

// Layout re-exports the geometric point set (see internal/geo).
type Layout = geo.Layout

// UnitDiskGraph materialises the unit-disk graph of a layout at the
// given radius through the grid-bucketed streaming builder (no O(n²)
// pair scan), stitching disconnected components so the result is a
// valid broadcast workload.
func UnitDiskGraph(l *Layout, radius float64, seed uint64) *Graph {
	return graph.BuildConnected(geo.NewDisk(l, radius), seed)
}

// RangeErasureChannel returns the position-aware quasi-unit-disk loss
// model over a layout: reliable within inner, erased with linearly
// distance-ramped probability between inner and outer, dead beyond
// outer. The layout is aliased — waypoint motion shifts the loss
// field immediately. Pair with a graph built at the outer radius.
func RangeErasureChannel(l *Layout, inner, outer float64, seed uint64) Channel {
	return channel.NewRangeErasure(l.X, l.Y, inner, outer, seed)
}

// Channel is the pluggable channel-adversity interface of the engine:
// a model of packet loss, jamming, unreliable collision detection, or
// radio faults that mediates every delivery. Construct instances with
// the *Channel builders below (or internal/channel directly); a nil
// Channel is the ideal synchronous channel of the paper. Channels
// carry per-run state — build a fresh one for every run.
type Channel = radio.Channel

// ErasureChannel returns a per-link loss channel: each (link, round)
// delivery is erased independently with probability p.
func ErasureChannel(p float64, seed uint64) Channel { return channel.NewErasure(p, seed) }

// NoisyCDChannel returns an unreliable collision-detection channel: a
// true ⊤ is missed with probability miss, silence becomes a spurious ⊤
// with probability spurious (per listener, per round).
func NoisyCDChannel(miss, spurious float64, seed uint64) Channel {
	return channel.NewNoisyCD(miss, spurious, seed)
}

// JammerChannel returns a budgeted wide-band jammer. Oblivious
// (adaptive=false) jams each round with probability rate; adaptive
// jams exactly the rounds with traffic (busiest-slot policy). Each
// jammed round costs one unit of budget (negative = unlimited).
func JammerChannel(budget int64, rate float64, adaptive bool, seed uint64) Channel {
	if adaptive {
		return channel.NewAdaptiveJammer(budget, 1, seed)
	}
	return channel.NewJammer(budget, rate, seed)
}

// FaultChannel returns a random radio-fault channel: every node except
// the source independently wakes late (uniform in [1, maxDelay]) with
// probability lateFrac and crashes (uniform in [1, horizon]) with
// probability crashFrac.
func FaultChannel(n int, source NodeID, lateFrac float64, maxDelay int64, crashFrac float64, horizon int64, seed uint64) Channel {
	return channel.RandomFaults(n, source, lateFrac, maxDelay, crashFrac, horizon, seed)
}

// StackChannels composes several channel models into one: losses OR
// together and observations flow through every model in order — so
// place a FaultChannel last, after observation-injecting models
// (JammerChannel, NoisyCDChannel's spurious ⊤), to keep dead radios
// fully deaf.
func StackChannels(chs ...Channel) Channel { return channel.Stack(chs) }

// Options configures a protocol run.
type Options struct {
	// Source is the broadcasting node (default 0). Every Broadcast*
	// runner, adaptive or not, starts the wave from it; for the
	// k-message broadcasts it is the node initially holding all k
	// messages, and BuildGSTDistributed roots the tree at it.
	Source NodeID
	// Seed drives all protocol randomness (runs are reproducible).
	Seed uint64
	// Scale multiplies every Θ(·) schedule constant (default 1; raise
	// it to push the empirical success probability toward 1 at tiny n).
	Scale int
	// RoundLimit caps the simulated rounds (0 = the protocol's own
	// schedule budget).
	RoundLimit int64
	// Channel, when non-nil, perturbs every delivery (loss, jamming,
	// unreliable CD, radio faults). nil is the ideal channel.
	Channel Channel
	// PipelinedBoundaries switches the distributed GST construction's
	// segment B to the even/odd pipelined schedule of Section 2.2.4
	// (O(D log⁴ n) instead of O(D log⁵ n)). Applies to
	// BuildGSTDistributed directly, and to BroadcastCD / BroadcastKCD
	// inside every ring's GST build — there it takes effect only when
	// it shortens the build (narrow rings already run an optimal
	// lockstep; see rings.Config.SetPipelined).
	PipelinedBoundaries bool
	// Adaptive wraps the broadcast in the loss-adaptive retry layer
	// (internal/adapt): if the run's schedule ends with radios still
	// uninformed — packet loss starved them, or they woke after the
	// one-shot wave passed — the stack is re-executed in epochs, each
	// epoch re-layering from every already-informed radio as an
	// additional source, until the broadcast completes or MaxEpochs
	// runs out. Ideal-channel runs complete in their first epoch, which
	// is byte-identical to the non-adaptive run. Supported by
	// BroadcastCD, BroadcastKCD, BroadcastKnownTopology,
	// DecayBroadcast, and CRBroadcast.
	Adaptive bool
	// MaxEpochs caps the retry epochs when Adaptive is set; 0 retries
	// until done (bounded by adapt.UntilDoneCap). Ignored otherwise.
	MaxEpochs int
}

// policy maps the adaptive options onto the retry layer's budget:
// RoundLimit becomes the total-round cap across epochs.
func (o Options) policy() adapt.Policy {
	return adapt.Policy{MaxEpochs: o.MaxEpochs, MaxRounds: o.RoundLimit}
}

func (o Options) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

// Result reports a completed broadcast.
type Result struct {
	// Rounds is the number of synchronous rounds until every node held
	// (and, for coded runs, decoded) every message.
	Rounds int64
	// Completed is false if the round limit elapsed first.
	Completed bool
	// Dropped and Jammed are the channel-adversity counters: deliveries
	// erased by the channel and observations whose class it changed
	// (both zero on the ideal channel).
	Dropped int64
	Jammed  int64
	// Epochs is the number of retry epochs the adaptive layer executed
	// (>= 1 when Options.Adaptive was set; 0 on non-adaptive runs). An
	// adaptive run with Epochs == 1 completed its original schedule
	// without any re-layering.
	Epochs int
}

// adaptiveResult folds an adaptive outcome into the facade Result.
func adaptiveResult(out adapt.Outcome) Result {
	return Result{Rounds: out.Rounds, Completed: out.Completed,
		Dropped: out.Stats.Dropped, Jammed: out.Stats.Jammed, Epochs: out.Epochs}
}

// BroadcastCD runs Theorem 1.1: single-message broadcast over unknown
// topology using collision detection (collision-wave layering, ring
// decomposition, distributed GSTs, fast/slow schedule, Decay
// handoffs).
func BroadcastCD(g *Graph, opts Options) (Result, error) {
	if err := checkGraph(g, opts.Source); err != nil {
		return Result{}, err
	}
	d := graph.Eccentricity(g, opts.Source)
	cfg := rings.DefaultConfig(g.N(), d, 0, opts.scale())
	cfg.SetPipelined(opts.PipelinedBoundaries)
	if opts.Adaptive {
		a := harness.NewAdaptiveTheorem11(g, cfg, harness.EpochChannel(opts.Channel), opts.Seed, opts.Source)
		return adaptiveResult(adapt.Run(a, opts.policy())), nil
	}
	res := harness.RunTheorem11OnCfg(g, cfg, opts.Channel, opts.Seed, opts.Source)
	return Result{Rounds: res.Rounds, Completed: res.Completed,
		Dropped: res.Stats.Dropped, Jammed: res.Stats.Jammed}, nil
}

// BroadcastKnownTopology runs the O(D + log^2 n) single-message
// broadcast atop a centrally constructed GST — the regime in which
// every node knows the topology ([7], used as the paper's black box).
func BroadcastKnownTopology(g *Graph, opts Options) (Result, error) {
	if err := checkGraph(g, opts.Source); err != nil {
		return Result{}, err
	}
	if opts.Adaptive {
		a := harness.NewAdaptiveGSTSingle(g, false, harness.EpochChannel(opts.Channel), opts.Seed, opts.Source)
		return adaptiveResult(adapt.Run(a, opts.policy())), nil
	}
	limit := opts.RoundLimit
	if limit == 0 {
		limit = 1 << 24
	}
	rounds, ok, st := harness.NewGSTSingleRun(g, false, opts.Source).Run(opts.Channel, opts.Seed, limit)
	return Result{Rounds: rounds, Completed: ok, Dropped: st.Dropped, Jammed: st.Jammed}, nil
}

// BroadcastK runs Theorem 1.2: k-message broadcast with random linear
// network coding atop the MMV GST schedule, known topology.
func BroadcastK(g *Graph, k int, opts Options) (Result, error) {
	if err := checkGraph(g, opts.Source); err != nil {
		return Result{}, err
	}
	if k < 1 {
		return Result{}, fmt.Errorf("radiocast: k must be positive, got %d", k)
	}
	if opts.Adaptive {
		return Result{}, fmt.Errorf("radiocast: Options.Adaptive is not supported by BroadcastK (use BroadcastKCD for adaptive k-message broadcast)")
	}
	limit := opts.RoundLimit
	if limit == 0 {
		limit = 1 << 24
	}
	rounds, ok, st := harness.NewGSTMultiRun(g, k, opts.Source).Run(opts.Channel, opts.Seed, limit)
	return Result{Rounds: rounds, Completed: ok, Dropped: st.Dropped, Jammed: st.Jammed}, nil
}

// BroadcastKCD runs Theorem 1.3: k-message broadcast over unknown
// topology with collision detection (ring pipeline, per-ring RLNC,
// fountain handoffs).
func BroadcastKCD(g *Graph, k int, opts Options) (Result, error) {
	if err := checkGraph(g, opts.Source); err != nil {
		return Result{}, err
	}
	if k < 1 {
		return Result{}, fmt.Errorf("radiocast: k must be positive, got %d", k)
	}
	d := graph.Eccentricity(g, opts.Source)
	cfg := rings.DefaultConfig(g.N(), d, k, opts.scale())
	cfg.SetPipelined(opts.PipelinedBoundaries)
	if opts.Adaptive {
		a := harness.NewAdaptiveTheorem13(g, cfg, harness.EpochChannel(opts.Channel), opts.Seed, opts.Source)
		return adaptiveResult(adapt.Run(a, opts.policy())), nil
	}
	rounds, ok, st := harness.RunTheorem13OnCfg(g, cfg, opts.Channel, opts.Seed, opts.Source)
	return Result{Rounds: rounds, Completed: ok, Dropped: st.Dropped, Jammed: st.Jammed}, nil
}

// DecayBroadcast runs the classic BGI Decay baseline,
// O(D log n + log^2 n).
func DecayBroadcast(g *Graph, opts Options) (Result, error) {
	if err := checkGraph(g, opts.Source); err != nil {
		return Result{}, err
	}
	if opts.Adaptive {
		a := harness.NewAdaptiveDecay(g, harness.EpochChannel(opts.Channel), opts.Seed, opts.Source)
		return adaptiveResult(adapt.Run(a, opts.policy())), nil
	}
	limit := opts.RoundLimit
	if limit == 0 {
		limit = 1 << 24
	}
	rounds, ok, st := harness.NewDecayRun(g, opts.Source).Run(opts.Channel, opts.Seed, limit)
	return Result{Rounds: rounds, Completed: ok, Dropped: st.Dropped, Jammed: st.Jammed}, nil
}

// CRBroadcast runs the Czumaj–Rytter-shaped baseline,
// O(D log(n/D) + log^2 n).
func CRBroadcast(g *Graph, opts Options) (Result, error) {
	if err := checkGraph(g, opts.Source); err != nil {
		return Result{}, err
	}
	d := graph.Eccentricity(g, opts.Source)
	if opts.Adaptive {
		a := harness.NewAdaptiveCR(g, d, harness.EpochChannel(opts.Channel), opts.Seed, opts.Source)
		return adaptiveResult(adapt.Run(a, opts.policy())), nil
	}
	limit := opts.RoundLimit
	if limit == 0 {
		limit = 1 << 24
	}
	rounds, ok, st := harness.NewCRRun(g, d, opts.Source).Run(opts.Channel, opts.Seed, limit)
	return Result{Rounds: rounds, Completed: ok, Dropped: st.Dropped, Jammed: st.Jammed}, nil
}

// GST is a constructed gathering spanning tree with per-node levels,
// ranks, parents, and virtual distances.
type GST struct {
	// Tree is the underlying ranked BFS forest.
	Tree *gst.Tree
	// VirtualDistance[v] is v's distance in the virtual graph G'.
	VirtualDistance []int32
	// ConstructionRounds is 0 for centralized construction.
	ConstructionRounds int64
}

// BuildGST constructs a GST centrally (known topology) and validates
// it. The roots default to node 0. A graph the roots do not span
// yields a forest over the reachable part, so connectivity is not
// required.
func BuildGST(g *Graph, roots ...NodeID) (*GST, error) {
	if len(roots) == 0 {
		roots = []NodeID{0}
	}
	if err := checkNodes(g, "root", roots...); err != nil {
		return nil, err
	}
	tree := gst.Construct(g, roots...)
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("radiocast: constructed GST invalid: %w", err)
	}
	return &GST{Tree: tree, VirtualDistance: gst.VirtualDistances(tree)}, nil
}

// BuildGSTDistributed runs the Theorem 2.1 distributed construction
// (with Lemma 3.10 virtual distances) on the simulator and validates
// the result. It works without collision detection (Decay layering).
func BuildGSTDistributed(g *Graph, opts Options) (*GST, error) {
	if err := checkGraph(g, opts.Source); err != nil {
		return nil, err
	}
	d := graph.Eccentricity(g, opts.Source)
	cfg := gstdist.DefaultConfig(g.N(), d, opts.scale(), gstdist.LayerDecay, true)
	cfg.PipelinedBoundaries = opts.PipelinedBoundaries
	nw := radio.New(g, radio.Config{})
	protos := make([]*gstdist.Protocol, g.N())
	for v := 0; v < g.N(); v++ {
		protos[v] = gstdist.New(cfg, NodeID(v), NodeID(v) == opts.Source, 0,
			rng.New(opts.Seed, uint64(v)))
		nw.SetProtocol(NodeID(v), protos[v])
	}
	nw.Run(cfg.TotalRounds())
	tree := gst.NewTree(g, []NodeID{opts.Source})
	vdist := make([]int32, g.N())
	for v := 0; v < g.N(); v++ {
		res := protos[v].Result()
		tree.Level[v] = res.Level
		tree.Parent[v] = res.Parent
		tree.Rank[v] = res.Rank
		vdist[v] = res.Vdist
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("radiocast: distributed GST invalid (raise Options.Scale): %w", err)
	}
	return &GST{Tree: tree, VirtualDistance: vdist, ConstructionRounds: cfg.TotalRounds()}, nil
}

// RandomMessages generates k reproducible l-bit payloads (for use with
// the coded broadcasts in examples and tests).
func RandomMessages(k, l int, seed uint64) []rlnc.Message {
	r := rng.New(seed, 0x6d67)
	msgs := make([]rlnc.Message, k)
	for i := range msgs {
		msgs[i] = bitvec.RandomVec(l, r.Uint64)
	}
	return msgs
}

// ScheduleInfo exposes the per-node MMV schedule inputs of a GST.
func (t *GST) ScheduleInfo() []mmv.NodeInfo { return mmv.InfoFromTree(t.Tree) }

func checkGraph(g *Graph, source NodeID) error {
	if err := checkNodes(g, "source", source); err != nil {
		return err
	}
	if !graph.IsConnected(g) {
		return fmt.Errorf("radiocast: graph must be connected")
	}
	return nil
}

// checkNodes rejects a nil or empty graph and any of the named nodes
// (sources or roots) outside [0, n).
func checkNodes(g *Graph, what string, nodes ...NodeID) error {
	if g == nil || g.N() == 0 {
		return fmt.Errorf("radiocast: empty graph")
	}
	for _, v := range nodes {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("radiocast: %s %d out of range [0,%d)", what, v, g.N())
		}
	}
	return nil
}
