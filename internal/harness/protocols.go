package harness

// The protocol table: the paper's six single-engine stacks and the four
// dense ports, each named, described and built in exactly one place.
// The facade builds every broadcast through it, radiocastd validates
// and dispatches job specs through it, radiosim reads its
// capabilities, and the experiment cells and scale sweeps build their
// stacks from it. Each entry also owns its round estimate (Rounds),
// which every cell cost and every default round budget reads.

import (
	"fmt"
	"math"

	"radiocast/internal/beep"
	"radiocast/internal/cr"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/mmv"
	"radiocast/internal/obs"
	"radiocast/internal/radio"
	"radiocast/internal/rings"
	"radiocast/internal/sched"
)

// Stack is the one runner shape of every protocol context.
type Stack interface {
	// RunFrom executes one seeded run over ch (nil = ideal). informed
	// non-nil is an adaptive carryover epoch (see sparseStack.RunFrom);
	// only adaptive-capable stacks accept it. limit <= 0 runs to the
	// stack's own budget: the compiled schedule of a ring pipeline, the
	// wave's horizon, OpenLimit for the open-ended stacks.
	RunFrom(informed []bool, ch radio.Channel, seed uint64, limit int64) (int64, bool, radio.Stats)
	// Coverage returns how many nodes were done when the last run
	// stopped (== n on completed runs).
	Coverage() int
	// SetObserver attaches o at the given round stride for every
	// subsequent run; nil detaches.
	SetObserver(o obs.RoundObserver, stride int64)
}

// StackOpts are the build parameters a table entry may read.
type StackOpts struct {
	// K is the message count of the k-message stacks (< 1 means 1).
	K int
	// Noise turns on the MMV jamming adversary of the GST stacks: every
	// uninformed member jams its slow slots (Lemma 3.3's regime).
	Noise bool
	// LossyHorizon stretches the wave's horizon from the source
	// eccentricity to 4·ecc+64, room for a lossy channel.
	LossyHorizon bool
	// EpochLimit overrides an adaptive runner's per-epoch round budget
	// (0 = the entry's default; see Protocol.NewAdaptive).
	EpochLimit int64
	// Scale multiplies the ring pipelines' Θ(·) schedule constants
	// (< 1 means 1; see rings.DefaultConfig).
	Scale int
	// Pipelined switches the ring pipelines' GST builds to the even/odd
	// boundary schedule where that shortens them (see
	// rings.Config.SetPipelined).
	Pipelined bool
}

// Protocol is one row of the protocol table.
type Protocol struct {
	Name string
	// Dense stacks run on the SoA engine (radio.Dense); their contexts
	// take a worker count per run (SetWorkers).
	Dense bool
	// TakesK stacks broadcast StackOpts.K messages.
	TakesK bool
	// Adaptive stacks accept carryover epochs, so NewAdaptive can wrap
	// them in the retry layer.
	Adaptive bool
	// RetopoSafe stacks depend on nothing but n, so the mobility layer
	// may swap their topology between epochs; AdaptiveRunner.Retopo
	// admits only these.
	RetopoSafe bool
	// Rings marks the unknown-topology ring pipelines (Theorems 1.1 and
	// 1.3): their runs are capped by a compiled schedule budget and
	// their GSTs are built distributedly, so boundary pipelining
	// applies to them.
	Rings bool

	build func(b *builder) Stack
	// rounds is the entry's completion estimate from its paper bound;
	// it reads only b's n, d and StackOpts (see Rounds).
	rounds func(b *builder) int64
}

// builder carries one build's inputs. ecc memoizes the source
// eccentricity BFS, so an entry and its adaptive epoch budget run it
// at most once, and entries that need no eccentricity never do. An
// estimate's builder has no graph: n and d are given.
type builder struct {
	StackOpts
	g   *graph.Graph
	n   int
	src graph.NodeID
	d   int
}

func (b *builder) ecc() int {
	if b.d < 0 {
		b.d = graph.Eccentricity(b.g, b.src)
	}
	return b.d
}

func (b *builder) k() int { return max(b.K, 1) }

// ringConfig is the schedule of a ring pipeline broadcasting k
// messages (0 for the single-message pipeline).
func (b *builder) ringConfig(k int) rings.Config {
	cfg := rings.DefaultConfig(b.n, b.ecc(), k, b.Scale)
	cfg.SetPipelined(b.Pipelined)
	return cfg
}

// decayRounds is the Decay bound O(D log n + log^2 n), the estimate of
// every randomized-broadcast entry (Decay, CR and the GST broadcast).
func decayRounds(b *builder) int64 {
	l := int64(sched.LogN(b.n))
	return int64(b.ecc())*l + l*l
}

// waveRounds is the collision wave's O(D + log n).
func waveRounds(b *builder) int64 { return int64(b.ecc()) + int64(sched.LogN(b.n)) }

// Protocols is the ordered protocol table.
var Protocols = []Protocol{
	{Name: "decay", Adaptive: true, RetopoSafe: true, build: plainDecay.sparse, rounds: decayRounds},
	{Name: "cr", Adaptive: true, build: fastDecay.sparse, rounds: decayRounds},
	{Name: "gst", Adaptive: true, build: func(b *builder) Stack {
		return gstStack(b.g, b.Noise, b.src)
	}, rounds: decayRounds},
	{Name: "k-known", TakesK: true, build: func(b *builder) Stack {
		return gstMultiStack(b.g, b.k(), b.src)
	}, rounds: func(b *builder) int64 {
		// Theorem 1.2 adds k log n for the k messages.
		return decayRounds(b) + int64(b.k()*sched.LogN(b.n))
	}},
	{Name: "cd", Adaptive: true, Rings: true, build: func(b *builder) Stack {
		return ringStack(b.g, b.ringConfig(0), b.src, 0x11)
	}, rounds: func(b *builder) int64 { return b.ringConfig(0).TotalRounds() }},
	{Name: "k-cd", TakesK: true, Adaptive: true, Rings: true, build: func(b *builder) Stack {
		return ringStack(b.g, b.ringConfig(b.k()), b.src, 0x16)
	}, rounds: func(b *builder) int64 { return b.ringConfig(b.k()).TotalRounds() }},
	{Name: "dense-decay", Dense: true, build: plainDecay.dense, rounds: decayRounds},
	{Name: "dense-cr", Dense: true, build: fastDecay.dense, rounds: decayRounds},
	{Name: "dense-wave", Dense: true, build: func(b *builder) Stack {
		// The wave is over at its horizon by construction; collision
		// detection is its correctness assumption, so it is forced on.
		horizon := int64(b.ecc())
		if b.LossyHorizon {
			horizon = 4*horizon + 64
		}
		return &denseStack{g: b.g, cd: true, horizon: horizon, newRun: func(uint64) denseProto {
			return beep.NewDenseWave(b.g, b.src, horizon)
		}}
	}, rounds: waveRounds},
	{Name: "dense-gst", Dense: true, build: func(b *builder) Stack {
		// Tree construction is the expensive step, so the flat arrays and
		// the MMV schedule are built once per context: the
		// build-once/broadcast-many split of the paper's amortized regime.
		flat := gst.Flatten(gst.Construct(b.g, b.src))
		schedule := mmv.NewSchedule(b.n)
		return &denseStack{g: b.g, horizon: math.MaxInt64, newRun: func(seed uint64) denseProto {
			return mmv.NewDense(b.g, flat, schedule, seed, b.src, b.Noise)
		}}
	}, rounds: func(b *builder) int64 {
		// The fast relay pipelines one level per two rounds, and each of
		// the <= log n stretch boundaries on a root-to-leaf path waits
		// O(M log n) expected slow slots, with M = 6(L+2) the schedule
		// period: M times the wave's bound.
		return int64(mmv.NewSchedule(b.n).M) * waveRounds(b)
	}},
}

// decayFlavor is one Decay phase schedule of the table with its RNG
// derivations: plain BGI Decay and the CR baseline's FastDecay run the
// same protocol (decay.Broadcast, decay.Dense) and differ only here.
type decayFlavor struct {
	schedule func(b *builder) decay.Schedule
	tag      uint64                   // sparse per-node reseed tag
	key      func(seed uint64) uint64 // dense keyed-draw seed
}

var (
	plainDecay = decayFlavor{func(b *builder) decay.Schedule { return decay.PlainSchedule(b.n) }, 0xd0, decay.DenseKey}
	fastDecay  = decayFlavor{func(b *builder) decay.Schedule { return cr.NewParams(b.n, b.ecc()) }, 0xc0, cr.DenseKey}
)

func (f decayFlavor) sparse(b *builder) Stack {
	return decayStack(b.g, f.schedule(b), f.tag, b.src)
}

func (f decayFlavor) dense(b *builder) Stack {
	s := f.schedule(b)
	return &denseStack{g: b.g, horizon: math.MaxInt64, newRun: func(seed uint64) denseProto {
		return decay.NewDenseSchedule(b.g, s, f.key(seed), b.src)
	}}
}

// LookupProtocol returns the table entry named name.
func LookupProtocol(name string) (*Protocol, bool) {
	for i := range Protocols {
		if Protocols[i].Name == name {
			return &Protocols[i], true
		}
	}
	return nil, false
}

// ProtocolNames lists the names of the entries keep accepts, in table
// order (nil keep = every entry).
func ProtocolNames(keep func(p *Protocol) bool) []string {
	var names []string
	for i := range Protocols {
		if keep == nil || keep(&Protocols[i]) {
			names = append(names, Protocols[i].Name)
		}
	}
	return names
}

// mustProtocol returns the named entry for an experiment cell, which
// names only entries the table has.
func mustProtocol(name string) *Protocol {
	p, ok := LookupProtocol(name)
	if !ok {
		panic(fmt.Sprintf("harness: no protocol %q in the table", name))
	}
	return p
}

// cellStack builds the named entry over g from node 0 for an
// experiment cell, which already knows the source eccentricity d.
func cellStack(name string, g *graph.Graph, d int, o StackOpts) Stack {
	return mustProtocol(name).build(&builder{StackOpts: o, g: g, n: g.N(), d: d})
}

// cellCost is the longest-first scheduler weight of an experiment
// cell that runs the named entry over g once: n nodes over its
// estimate.
func cellCost(name string, g *graph.Graph, d int, o StackOpts) int64 {
	return budgetCost(g.N(), mustProtocol(name).Rounds(g.N(), d, o))
}

// adverseCost is cellCost on an adverse channel: n nodes over the
// entry's ceiling.
func adverseCost(name string, g *graph.Graph, d int, o StackOpts) int64 {
	return budgetCost(g.N(), mustProtocol(name).ceiling(g.N(), d, o))
}

// Rounds estimates p's completion rounds on an n-node graph whose
// source eccentricity is d, from the entry's paper bound (L = log n):
// d·L + L² for Decay, CR and the GST broadcasts, plus k·L for k-known;
// the compiled schedule for a ring pipeline; d + L for the collision
// wave; M·(d + L) for the dense MMV schedule of period M. It needs no
// graph, so the scale sweeps can cost their cells before one exists.
func (p *Protocol) Rounds(n, d int, o StackOpts) int64 {
	return p.rounds(&builder{StackOpts: o, n: n, d: d})
}

// ceiling is p's per-run round ceiling on an adverse channel. A ring
// pipeline's compiled schedule caps every run, so its ceiling is its
// estimate. An open-ended entry gets four times its estimate: room for
// channel-adversity slowdown that still keeps a stalled epoch from
// consuming a whole retry budget.
func (p *Protocol) ceiling(n, d int, o StackOpts) int64 {
	r := p.Rounds(n, d, o)
	if !p.Rings {
		r *= 4
	}
	return r
}

// Build constructs p's reusable context over g, broadcasting from src.
func (p *Protocol) Build(g *graph.Graph, src graph.NodeID, o StackOpts) Stack {
	return p.build(&builder{StackOpts: o, g: g, n: g.N(), src: src, d: -1})
}

// NewAdaptive builds p's context and wraps it in the retry layer with
// base seed seed and channel factory chf. The per-epoch budget is
// o.EpochLimit when positive, none for a ring pipeline (its compiled
// schedule caps each epoch), and p's ceiling otherwise; RunEpoch
// clamps any larger policy limit down to it. It panics for an entry
// that is not Adaptive.
func (p *Protocol) NewAdaptive(g *graph.Graph, src graph.NodeID, o StackOpts, chf ChannelFactory, seed uint64) *AdaptiveRunner {
	if !p.Adaptive {
		panic(fmt.Sprintf("harness: %s does not support adaptive retry", p.Name))
	}
	b := &builder{StackOpts: o, g: g, n: g.N(), src: src, d: -1}
	s := p.build(b).(*sparseStack)
	limit := o.EpochLimit
	if limit <= 0 && !p.Rings {
		limit = p.ceiling(g.N(), b.ecc(), o)
	}
	return newAdaptive(s, g.N(), chf, seed, limit, p.RetopoSafe)
}

// denseProto is one run's SoA protocol: every dense entry spreads one
// message through a radio.Spread, which answers completion and
// coverage.
type denseProto interface {
	radio.DenseProtocol
	Done() bool
	InformedCount() int
}

// denseStack is the context of the dense entries. The per-graph prep
// (eccentricity, flat GST and MMV schedule) runs once at build; every
// run builds its SoA protocol and engine afresh (dense protocols own
// all node state, so a fresh build is their reset), with the worker
// count set per run.
type denseStack struct {
	g       *graph.Graph
	cd      bool  // collision detection (the wave's correctness assumption)
	horizon int64 // caps every run's limit (the wave's horizon, else MaxInt64)
	newRun  func(seed uint64) denseProto
	workers int
	obs     obs.RoundObserver
	stride  int64
	covered int
	// afterRun, when set, is called while the finished run's engine and
	// protocol state are still live: the scale cells' heap bracket.
	afterRun func()
}

// SetWorkers sets the engine's worker count (radio.Config.Workers) for
// every subsequent run; results are byte-identical at any setting.
func (s *denseStack) SetWorkers(w int) { s.workers = w }

// RunFrom implements Stack. The dense stacks have no carryover epochs,
// so informed must be nil.
func (s *denseStack) RunFrom(informed []bool, ch radio.Channel, seed uint64, limit int64) (int64, bool, radio.Stats) {
	if informed != nil {
		panic("harness: the dense stacks have no carryover epochs")
	}
	radio.ResetChannel(ch)
	p := s.newRun(seed)
	eng := radio.NewDense(s.g, radio.Config{CollisionDetection: s.cd, Channel: ch, Workers: s.workers,
		Observer: s.obs, ObserverStride: s.stride}, p)
	defer eng.Close()
	rounds, ok := eng.RunUntil(min(openLimit(limit), s.horizon), p.Done)
	s.covered = p.InformedCount()
	if s.afterRun != nil {
		s.afterRun()
	}
	return rounds, ok, eng.Stats()
}

// Coverage implements Stack.
func (s *denseStack) Coverage() int { return s.covered }

// SetObserver implements Stack.
func (s *denseStack) SetObserver(o obs.RoundObserver, stride int64) { s.obs, s.stride = o, stride }
