// Package harness defines every reproduction experiment (E1..E23, plus
// the ablations A1..A3 of DESIGN.md) as a reusable runner producing a
// stats.Table. The same runners back `go test -bench`, cmd/radiobench,
// and the examples, so every number in EXPERIMENTS.md can be
// regenerated three ways.
//
// Every protocol stack is a reusable context with one runner shape,
// Stack: RunFrom(informed, ch, seed, limit) executes one seeded run,
// Coverage reports how many nodes were done when it stopped, and
// SetObserver attaches the engine's round observer. A context is built
// once per graph and runs any number of seeds with zero per-seed
// construction: radio.Network.Reset rewinds the engine, every protocol
// Reset rewinds in place, and rng.Reseed rewinds the held RNG streams.
// A context-run is bit-identical to a fresh context's run with the same
// seed — same RNG streams, same draws, same rounds — so a one-shot run
// is just Build(...).RunFrom(nil, ch, seed, limit). informed != nil is
// the adaptive layer's carryover epoch (AdaptiveRunner); the dense
// contexts build their SoA protocol and engine per run instead.
//
// Protocols lists every broadcast stack in one ordered table: each
// entry carries its capabilities (dense engine, takes k,
// adaptive-capable, retopo-safe, ring pipeline) and builds its context.
// The facade, radiocastd, radiosim and the experiment cells all build
// through it (Protocol.Build, Protocol.NewAdaptive, cellStack), so a
// protocol is named and constructed in one place; only E23's sparse
// wave, which is not a table entry, has its own constructors.
//
// Completion predicates are O(1): each protocol/content layer ticks a
// radio.DoneSet exactly once on first completion, replacing the
// historical all-nodes scan after every executed round (an O(n·R)
// cost that dominated long runs).
package harness

import (
	"math/rand"

	"radiocast/internal/bitvec"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/mmv"
	"radiocast/internal/obs"
	"radiocast/internal/radio"
	"radiocast/internal/rings"
	"radiocast/internal/rlnc"
	"radiocast/internal/rng"
)

// OpenLimit is the round cap of the open-ended stacks (Decay, CR, the
// GST broadcasts and the dense catalog) when a run passes limit <= 0.
const OpenLimit = 1 << 24

func openLimit(limit int64) int64 {
	if limit <= 0 {
		return OpenLimit
	}
	return limit
}

// epochSource resolves node v's source flag for a run with carryover:
// a fresh run (informed == nil) broadcasts from the configured source
// node; a re-layering epoch broadcasts from every informed radio. All
// RunFrom implementations share this so carryover semantics cannot
// drift between stacks.
func epochSource(informed []bool, v int, source graph.NodeID) bool {
	if informed == nil {
		return graph.NodeID(v) == source
	}
	return informed[v]
}

// initDone applies the DoneSet contract after a stack is constructed
// or reset: rewind the counter LAST (wiping any stray ticks fired
// while preloading source stores), then perform the single O(n) scan
// ticking every node that starts completed. done reports node v's
// initial completion. From here on, protocols tick only on their
// not-done -> done transition, so RunUntil predicates are one integer
// compare.
func initDone(ds *radio.DoneSet, n int, done func(v int) bool) {
	ds.Reset(n)
	for v := 0; v < n; v++ {
		if done(v) {
			ds.Tick()
		}
	}
}

// sparseStack is what every per-node (radio.Network) context shares:
// the engine, the source node, and the O(1) completion counter.
type sparseStack struct {
	nw  *radio.Network
	src graph.NodeID
	ds  radio.DoneSet
	// node is the concrete stack: its per-node completion predicate
	// seeds the counter and harvests the adaptive carryover.
	node interface{ nodeDone(v int) bool }
}

// begin rewinds the engine for one run over ch (nil = ideal). A fresh
// run (informed == nil) also rewinds the channel's per-run state via
// radio.ResetChannel, so one channel instance may serve many seeds;
// carryover epochs deliberately keep it (an adversary's budget spans
// the whole retried broadcast).
func (s *sparseStack) begin(informed []bool, ch radio.Channel) {
	if informed == nil {
		radio.ResetChannel(ch)
	}
	s.nw.Reset()
	s.nw.SetChannel(ch)
}

// finish seeds the completion counter from the installed protocols and
// runs until every node is done or limit rounds elapse.
func (s *sparseStack) finish(limit int64) (int64, bool, radio.Stats) {
	initDone(&s.ds, s.nw.Graph().N(), s.node.nodeDone)
	rounds, ok := s.nw.RunUntil(limit, s.ds.Done)
	return rounds, ok, s.nw.Stats()
}

// mark records each node's done state into dst (the adaptive
// carryover harvest).
func (s *sparseStack) mark(dst []bool) {
	for v := range dst {
		dst[v] = s.node.nodeDone(v)
	}
}

// Coverage returns how many nodes were done (held the message, or
// could decode every message) when the last run stopped (== n on
// completed runs).
func (s *sparseStack) Coverage() int { return s.ds.Count() }

// SetObserver attaches o at the given round stride (see
// radio.Config.ObserverStride); nil detaches. Observers survive the
// engine's Reset, so one call covers every subsequent seed.
func (s *sparseStack) SetObserver(o obs.RoundObserver, stride int64) { s.nw.SetObserver(o, stride) }

// ---------------------------------------------------------------------
// Decay (the BGI baseline and, on the FastDecay schedule, CR).

// DecayRun is a reusable Decay broadcast harness over one graph:
// construct once, run any number of seeds with zero per-seed
// construction.
type DecayRun struct {
	sparseStack
	protos []*decay.Broadcast
	tag    uint64 // per-node RNG reseed tag of the schedule's stream
}

// NewDecayRun builds the reusable stack on schedule s broadcasting
// from source; node v's RNG is reseeded from (seed, tag, v) every run.
func NewDecayRun(g *graph.Graph, s decay.Schedule, tag uint64, source graph.NodeID) *DecayRun {
	n := g.N()
	r := &DecayRun{sparseStack: sparseStack{nw: radio.New(g, radio.Config{}), src: source}, protos: make([]*decay.Broadcast, n), tag: tag}
	r.node = r
	for v := 0; v < n; v++ {
		r.protos[v] = decay.NewBroadcast(s, graph.NodeID(v) == source, decay.Message{Data: 1}, rng.New())
		r.protos[v].DoneSet = &r.ds
	}
	return r
}

func (r *DecayRun) nodeDone(v int) bool { return r.protos[v].Has() }

// RunFrom executes one seeded run over ch (nil = ideal; stateful
// channels are rewound via radio.ResetChannel, so one instance may
// serve many seeds); limit <= 0 means OpenLimit. When informed is
// non-nil, node v starts holding the message iff informed[v] — the
// adaptive retry layer's re-layering epoch, where every radio informed
// by earlier epochs broadcasts as an additional source. informed == nil
// is a fresh run broadcasting from the constructor's source.
func (r *DecayRun) RunFrom(informed []bool, ch radio.Channel, seed uint64, limit int64) (int64, bool, radio.Stats) {
	r.begin(informed, ch)
	for v, p := range r.protos {
		p.Reset(epochSource(informed, v, r.src), decay.Message{Data: 1})
		rng.Reseed(p.Rng(), seed, r.tag, uint64(v))
		r.nw.SetProtocol(graph.NodeID(v), p)
	}
	return r.finish(openLimit(limit))
}

// Retopo swaps the engine's topology in place (radio.Network.Retopo).
// It is sound only on a schedule that depends on nothing but n (plain
// Decay): the FastDecay schedule bakes in the construction graph's
// eccentricity. The table marks only the plain entry RetopoSafe, and
// AdaptiveRunner.Retopo gates on that. The mobility driver's hook.
func (r *DecayRun) Retopo(offsets []int32, edges []radio.NodeID) {
	r.nw.Retopo(offsets, edges)
}

// ---------------------------------------------------------------------
// GST single-message broadcast (known topology).

// GSTSingleRun is the reusable single-message GST harness: the
// centralized GST, its flat view, and protocol objects are built once
// (they depend only on the graph).
type GSTSingleRun struct {
	sparseStack
	protos   []*mmv.Protocol
	contents []*mmv.SingleMessage
}

// NewGSTSingleRun builds the reusable stack (noising enables the MMV
// jamming adversary). The GST is rooted at source, which also holds
// the message.
func NewGSTSingleRun(g *graph.Graph, noising bool, source graph.NodeID) *GSTSingleRun {
	n := g.N()
	f := gst.Flatten(gst.Construct(g, source))
	s := mmv.NewSchedule(n)
	r := &GSTSingleRun{
		sparseStack: sparseStack{nw: radio.New(g, radio.Config{}), src: source},
		protos:      make([]*mmv.Protocol, n),
		contents:    make([]*mmv.SingleMessage, n),
	}
	r.node = r
	for v := 0; v < n; v++ {
		r.contents[v] = mmv.NewSingleMessage(graph.NodeID(v) == source, decay.Message{Data: 1})
		r.contents[v].DoneSet = &r.ds
		r.protos[v] = mmv.New(s, f, graph.NodeID(v), r.contents[v], noising, rng.New())
	}
	return r
}

func (r *GSTSingleRun) nodeDone(v int) bool { return r.contents[v].Done() }

// RunFrom executes one seeded run, with per-node carryover when
// informed is non-nil (see DecayRun.RunFrom): the GST schedule is
// unchanged, but every informed node starts holding the message, so
// the re-layered broadcast fills in the radios the previous pass
// missed.
func (r *GSTSingleRun) RunFrom(informed []bool, ch radio.Channel, seed uint64, limit int64) (int64, bool, radio.Stats) {
	r.begin(informed, ch)
	for v, p := range r.protos {
		r.contents[v].Reset(epochSource(informed, v, r.src), decay.Message{Data: 1})
		p.Rebind(r.contents[v])
		rng.Reseed(p.Rng(), seed, 0xe0, uint64(v))
		r.nw.SetProtocol(graph.NodeID(v), p)
	}
	return r.finish(openLimit(limit))
}

// ---------------------------------------------------------------------
// Theorem 1.1 (single message, unknown topology, CD).

// Theorem11Run is the reusable full-pipeline harness of Theorem 1.1.
type Theorem11Run struct {
	sparseStack
	cfg    rings.Config
	protos []*rings.Protocol
}

// NewTheorem11RunCfg builds the reusable Theorem 1.1 stack on an
// explicit ring configuration (the table's cd entry builds one,
// optionally scaled and pipelined), broadcasting from source. Its nodes
// share one GST view, each writing its own row as it learns it.
func NewTheorem11RunCfg(g *graph.Graph, cfg rings.Config, source graph.NodeID) *Theorem11Run {
	n := g.N()
	f := gst.NewFlat(n)
	r := &Theorem11Run{
		sparseStack: sparseStack{nw: radio.New(g, radio.Config{CollisionDetection: true}), src: source},
		cfg:         cfg,
		protos:      make([]*rings.Protocol, n),
	}
	r.node = r
	for v := 0; v < n; v++ {
		r.protos[v] = rings.New(cfg, f, graph.NodeID(v), graph.NodeID(v) == source, nil, rng.New())
		r.protos[v].SingleContent().DoneSet = &r.ds
	}
	return r
}

func (r *Theorem11Run) nodeDone(v int) bool { return r.protos[v].Has() }

// RunFrom is one full pipeline execution with per-node carryover (see
// DecayRun.RunFrom): informed nodes re-run the whole schedule as
// additional sources, so the collision wave — and therefore the
// layering, ring decomposition, and spread — restarts from the entire
// informed frontier. limit caps the rounds when positive and below the
// schedule budget.
func (r *Theorem11Run) RunFrom(informed []bool, ch radio.Channel, seed uint64, limit int64) (int64, bool, radio.Stats) {
	r.begin(informed, ch)
	for v, p := range r.protos {
		p.Reset(epochSource(informed, v, r.src), nil)
		rng.Reseed(p.Rng(), seed, 0x11, uint64(v))
		r.nw.SetProtocol(graph.NodeID(v), p)
	}
	return r.finish(lowerLimit(r.cfg.TotalRounds(), limit))
}

// lowerLimit is a run's round cap: its own cap (a ring pipeline's
// compiled schedule budget, say), lowered to limit when that is
// positive and smaller.
func lowerLimit(own, limit int64) int64 {
	if limit > 0 && limit < own {
		return limit
	}
	return own
}

// ---------------------------------------------------------------------
// Theorem 1.2 (k messages, known topology, RLNC).

// GSTMultiRun is the reusable Theorem 1.2 harness.
type GSTMultiRun struct {
	sparseStack
	protos   []*mmv.Protocol
	contents []*mmv.RLNC
	bufs     []*rlnc.Buffer
	msgRng   *rand.Rand
	msgs     []rlnc.Message
}

// NewGSTMultiRun builds the reusable stack for k messages. The GST is
// rooted at source, which holds all k messages.
func NewGSTMultiRun(g *graph.Graph, k int, source graph.NodeID) *GSTMultiRun {
	n := g.N()
	f := gst.Flatten(gst.Construct(g, source))
	s := mmv.NewSchedule(n)
	r := &GSTMultiRun{
		sparseStack: sparseStack{nw: radio.New(g, radio.Config{}), src: source},
		protos:      make([]*mmv.Protocol, n),
		contents:    make([]*mmv.RLNC, n),
		bufs:        make([]*rlnc.Buffer, n),
		msgRng:      rng.New(),
		msgs:        make([]rlnc.Message, k),
	}
	r.node = r
	for i := range r.msgs {
		r.msgs[i] = bitvec.New(rings.PayloadBits)
	}
	for v := 0; v < n; v++ {
		r.bufs[v] = rlnc.NewBuffer(0, k, rings.PayloadBits)
		r.bufs[v].SetOnFull(r.ds.Tick)
		r.contents[v] = mmv.NewRLNC(r.bufs[v], rng.New())
		r.protos[v] = mmv.New(s, f, graph.NodeID(v), r.contents[v], false, rng.New())
	}
	return r
}

func (r *GSTMultiRun) nodeDone(v int) bool { return r.contents[v].Done() }

// RunFrom executes one seeded run over ch (nil = ideal), verifying
// decoded payloads on completion; limit <= 0 means OpenLimit. The
// k-message stack has no carryover epochs (it is not adaptive-capable),
// so informed must be nil.
func (r *GSTMultiRun) RunFrom(informed []bool, ch radio.Channel, seed uint64, limit int64) (int64, bool, radio.Stats) {
	if informed != nil {
		panic("harness: the Theorem 1.2 stack has no carryover epochs")
	}
	r.begin(nil, ch)
	rng.Reseed(r.msgRng, seed, 0x12)
	for i := range r.msgs {
		r.msgs[i].Randomize(r.msgRng.Uint64)
	}
	for v, p := range r.protos {
		if graph.NodeID(v) == r.src {
			r.bufs[v].ResetSource(r.msgs)
		} else {
			r.bufs[v].Reset()
		}
		rng.Reseed(r.contents[v].Rng(), seed, 0x13, uint64(v))
		p.Rebind(r.contents[v])
		rng.Reseed(p.Rng(), seed, 0x14, uint64(v))
		r.nw.SetProtocol(graph.NodeID(v), p)
	}
	rounds, ok, st := r.finish(openLimit(limit))
	if !ok {
		return rounds, false, st
	}
	for _, c := range r.contents {
		got, dok := c.Buffer().Decode()
		if !dok {
			return rounds, false, st
		}
		for i := range r.msgs {
			if !bitvec.Equal(got[i], r.msgs[i]) {
				return rounds, false, st
			}
		}
	}
	return rounds, true, st
}

// ---------------------------------------------------------------------
// Theorem 1.3 (k messages, unknown topology, CD).

// Theorem13Run is the reusable full-pipeline harness of Theorem 1.3 —
// the allocation-heaviest stack (per-ring RLNC stores), and therefore
// the one the Reset-reuse benchmarks guard.
type Theorem13Run struct {
	sparseStack
	cfg    rings.Config
	protos []*rings.Protocol
	msgRng *rand.Rand
	msgs   []rlnc.Message
}

// NewTheorem13RunCfg builds the reusable Theorem 1.3 stack on an
// explicit ring configuration (cfg.K must be positive), with source
// holding the k messages. Like Theorem 1.1's, its nodes share one GST
// view.
func NewTheorem13RunCfg(g *graph.Graph, cfg rings.Config, source graph.NodeID) *Theorem13Run {
	n := g.N()
	f := gst.NewFlat(n)
	r := &Theorem13Run{
		sparseStack: sparseStack{nw: radio.New(g, radio.Config{CollisionDetection: true}), src: source},
		cfg:         cfg,
		protos:      make([]*rings.Protocol, n),
		msgRng:      rng.New(),
		msgs:        make([]rlnc.Message, cfg.K),
	}
	r.node = r
	for i := range r.msgs {
		r.msgs[i] = bitvec.New(rings.PayloadBits)
	}
	for v := 0; v < n; v++ {
		var m []rlnc.Message
		if graph.NodeID(v) == source {
			m = r.msgs
		}
		r.protos[v] = rings.New(cfg, f, graph.NodeID(v), graph.NodeID(v) == source, m, rng.New())
		r.protos[v].Store().SetOnAllDecodable(r.ds.Tick)
	}
	return r
}

func (r *Theorem13Run) nodeDone(v int) bool { return r.protos[v].Store().CanDecodeAll() }

// RunFrom is one full pipeline execution with per-node carryover (see
// DecayRun.RunFrom): a node that decoded every message in an earlier
// epoch re-runs as an additional source, preloading the identical
// message set (decode-complete stores hold exactly the source
// payloads), so every ring's RLNC spread draws from the whole informed
// frontier. Fresh runs (informed == nil) randomize the payloads from
// the seed; carryover epochs keep them.
func (r *Theorem13Run) RunFrom(informed []bool, ch radio.Channel, seed uint64, limit int64) (int64, bool, radio.Stats) {
	if informed == nil {
		rng.Reseed(r.msgRng, seed, 0x15)
		for i := range r.msgs {
			r.msgs[i].Randomize(r.msgRng.Uint64)
		}
	}
	r.begin(informed, ch)
	for v, p := range r.protos {
		src := epochSource(informed, v, r.src)
		var m []rlnc.Message
		if src {
			m = r.msgs
		}
		p.Reset(src, m)
		rng.Reseed(p.Rng(), seed, 0x16, uint64(v))
		r.nw.SetProtocol(graph.NodeID(v), p)
	}
	return r.finish(lowerLimit(r.cfg.TotalRounds(), limit))
}

// ---------------------------------------------------------------------
// A2 routing baseline.

// PlainPacket is an uncoded message for the routing baseline of A2.
type PlainPacket struct {
	Index   int32
	Payload int64
}

// Bits implements radio.Packet.
func (PlainPacket) Bits() int { return 96 }

// PlainStore is the store-and-forward content layer (no coding): when
// prompted, the node sends a uniformly random message it holds. Held
// messages live in an insertion-ordered slice — never a map — so the
// random pick consumes the RNG deterministically (map iteration order
// would make reruns diverge).
type PlainStore struct {
	K   int
	Rng interface{ Intn(int) int }
	// DoneSet, when non-nil, is ticked when the K-th distinct message
	// arrives.
	DoneSet *radio.DoneSet

	order   []int32
	payload map[int32]int64
}

// NewPlainStore creates a store for k messages; source nodes call Put
// to seed their initial inventory.
func NewPlainStore(k int, rng interface{ Intn(int) int }) *PlainStore {
	return &PlainStore{K: k, Rng: rng, payload: make(map[int32]int64)}
}

// Reset empties the store for a new run, keeping its allocations.
func (ps *PlainStore) Reset() {
	ps.order = ps.order[:0]
	for k := range ps.payload {
		delete(ps.payload, k)
	}
}

// Put records a message if it is new.
func (ps *PlainStore) Put(index int32, payload int64) {
	if ps.payload == nil {
		ps.payload = make(map[int32]int64)
	}
	if _, ok := ps.payload[index]; ok {
		return
	}
	ps.payload[index] = payload
	ps.order = append(ps.order, index)
	if len(ps.order) == ps.K {
		ps.DoneSet.Tick()
	}
}

var _ mmv.Content = (*PlainStore)(nil)

// Fresh implements mmv.Content.
func (ps *PlainStore) Fresh() radio.Packet {
	if len(ps.order) == 0 {
		return nil
	}
	idx := ps.order[ps.Rng.Intn(len(ps.order))]
	return PlainPacket{Index: idx, Payload: ps.payload[idx]}
}

// OnReceive implements mmv.Content.
func (ps *PlainStore) OnReceive(pkt radio.Packet, _ radio.NodeID) {
	if p, ok := pkt.(PlainPacket); ok {
		ps.Put(p.Index, p.Payload)
	}
}

// Done implements mmv.Content.
func (ps *PlainStore) Done() bool { return len(ps.order) == ps.K }

// RunGSTMultiRouting is the A2 baseline: k messages with plain
// store-and-forward routing on the same schedule.
func RunGSTMultiRouting(g *graph.Graph, k int, seed uint64, limit int64) (int64, bool) {
	f := gst.Flatten(gst.Construct(g, 0))
	s := mmv.NewSchedule(g.N())
	nw := radio.New(g, radio.Config{})
	var ds radio.DoneSet
	contents := make([]*PlainStore, g.N())
	for v := 0; v < g.N(); v++ {
		contents[v] = NewPlainStore(k, rng.New(seed, 0x17, uint64(v)))
		contents[v].DoneSet = &ds
		if v == 0 {
			for i := 0; i < k; i++ {
				contents[v].Put(int32(i), int64(1000+i))
			}
		}
		nw.SetProtocol(graph.NodeID(v),
			mmv.New(s, f, graph.NodeID(v), contents[v], false, rng.New(seed, 0x18, uint64(v))))
	}
	initDone(&ds, g.N(), func(v int) bool { return contents[v].Done() })
	return nw.RunUntil(limit, ds.Done)
}
