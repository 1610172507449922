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
// the adaptive layer's carryover epoch (AdaptiveRunner). Every per-node
// stack is one context type, sparseStack, that its constructor fills
// with per-entry functions; the dense contexts build their SoA protocol
// and engine per run instead.
//
// Protocols lists every broadcast stack in one ordered table: each
// entry carries its capabilities (dense engine, takes k,
// adaptive-capable, retopo-safe, ring pipeline) and builds its context.
// The facade, radiocastd, radiosim and the experiment cells all build
// through it (Protocol.Build, Protocol.NewAdaptive, cellStack), so a
// protocol is named and constructed in one place. E23's collision wave,
// A3's ring-width sweep and E6's construction runner, which are not
// table entries, build on the same sparseStack constructors.
//
// Completion predicates are O(1): each protocol/content layer ticks a
// radio.DoneSet exactly once on first completion, replacing the
// historical all-nodes scan after every executed round (an O(n·R)
// cost that dominated long runs).
package harness

import (
	"radiocast/internal/beep"
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

// lowerLimit is a run's round cap: its own cap (a ring pipeline's
// compiled schedule budget, say), lowered to limit when that is
// positive and smaller.
func lowerLimit(own, limit int64) int64 {
	if limit > 0 && limit < own {
		return limit
	}
	return own
}

// sparseStack is the one context of every per-node (radio.Network)
// stack: the engine, the source node, the O(1) completion counter, the
// stack's own round cap and the per-entry functions its constructor
// supplies. Its per-node protocols are built once; every run resets
// and reseeds them in place and installs them on the rewound engine.
type sparseStack struct {
	nw  *radio.Network
	src graph.NodeID
	ds  radio.DoneSet
	// own caps every run: a ring pipeline's compiled schedule or the
	// wave's horizon; 0 = open-ended (OpenLimit when limit <= 0).
	own int64
	// freshOnly stacks have no carryover epochs (the k-known entry).
	freshOnly bool
	// done reports node v's completion: it seeds the counter and
	// harvests the adaptive carryover.
	done func(v int) bool
	// reset rewinds node v's protocol for a run with the given source
	// flag, seed and round budget, and returns it for installation.
	reset func(v int, source bool, seed uint64, budget int64) radio.Protocol
	// fresh, when set, draws a fresh run's payloads from its seed, and
	// check verifies a completed run's decoded payloads (the k-message
	// entries).
	fresh func(seed uint64)
	check func() bool
}

// newSparse builds the engine of a stack broadcasting from src (cd
// turns on collision detection).
func newSparse(g *graph.Graph, cd bool, src graph.NodeID) *sparseStack {
	return &sparseStack{nw: radio.New(g, radio.Config{CollisionDetection: cd}), src: src}
}

// RunFrom executes one seeded run over ch (nil = ideal). A fresh run
// (informed == nil) broadcasts from the constructor's source and
// rewinds the channel's per-run state via radio.ResetChannel, so one
// channel instance may serve many seeds. When informed is non-nil,
// node v starts as a source iff informed[v]: the adaptive retry
// layer's re-layering epoch, where every radio informed by earlier
// epochs broadcasts again (a decode-complete k-cd node preloads the
// identical message set) and the channel keeps its state (an
// adversary's budget spans the whole retried broadcast). limit caps
// the run when positive and below the stack's own cap; limit <= 0
// runs to that cap, or to OpenLimit.
func (s *sparseStack) RunFrom(informed []bool, ch radio.Channel, seed uint64, limit int64) (int64, bool, radio.Stats) {
	if informed == nil {
		if s.fresh != nil {
			s.fresh(seed)
		}
		radio.ResetChannel(ch)
	} else if s.freshOnly {
		panic("harness: this stack has no carryover epochs")
	}
	budget := openLimit(limit)
	if s.own > 0 {
		budget = lowerLimit(s.own, limit)
	}
	s.nw.Reset()
	s.nw.SetChannel(ch)
	n := s.nw.Graph().N()
	for v := 0; v < n; v++ {
		source := graph.NodeID(v) == s.src
		if informed != nil {
			source = informed[v]
		}
		s.nw.SetProtocol(graph.NodeID(v), s.reset(v, source, seed, budget))
	}
	initDone(&s.ds, n, s.done)
	rounds, ok := s.nw.RunUntil(budget, s.ds.Done)
	if ok && s.check != nil {
		ok = s.check()
	}
	return rounds, ok, s.nw.Stats()
}

// mark records each node's done state into dst (the adaptive
// carryover harvest).
func (s *sparseStack) mark(dst []bool) {
	for v := range dst {
		dst[v] = s.done(v)
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

// Retopo swaps the engine's topology in place (radio.Network.Retopo).
// It is sound only for a stack whose protocols depend on nothing but
// n (plain Decay, the collision wave): the others compile eccentricity
// or per-node transmission plans out of the construction graph. The
// table marks only plain Decay RetopoSafe, and AdaptiveRunner.Retopo
// gates on that. The mobility driver's hook.
func (s *sparseStack) Retopo(offsets []int32, edges []radio.NodeID) {
	s.nw.Retopo(offsets, edges)
}

// decayStack is Decay (the BGI baseline and, on the FastDecay
// schedule, CR) on schedule, broadcasting from src; node v's RNG is
// reseeded from (seed, tag, v) every run.
func decayStack(g *graph.Graph, schedule decay.Schedule, tag uint64, src graph.NodeID) *sparseStack {
	s := newSparse(g, false, src)
	protos := make([]*decay.Broadcast, g.N())
	for v := range protos {
		protos[v] = decay.NewBroadcast(schedule, graph.NodeID(v) == src, decay.Message{Data: 1}, rng.New())
		protos[v].DoneSet = &s.ds
	}
	s.done = func(v int) bool { return protos[v].Has() }
	s.reset = func(v int, source bool, seed uint64, _ int64) radio.Protocol {
		p := protos[v]
		p.Reset(source, decay.Message{Data: 1})
		rng.Reseed(p.Rng(), seed, tag, uint64(v))
		return p
	}
	return s
}

// gstStack is the single-message GST broadcast of known topology
// (noising enables the MMV jamming adversary). The GST is rooted at
// src, which also holds the message; the tree, its flat view and the
// schedule are built once, since they depend only on the graph.
func gstStack(g *graph.Graph, noising bool, src graph.NodeID) *sparseStack {
	f := gst.Flatten(gst.Construct(g, src))
	schedule := mmv.NewSchedule(g.N())
	s := newSparse(g, false, src)
	protos := make([]*mmv.Protocol, g.N())
	contents := make([]*mmv.SingleMessage, g.N())
	for v := range protos {
		contents[v] = mmv.NewSingleMessage(graph.NodeID(v) == src, decay.Message{Data: 1})
		contents[v].DoneSet = &s.ds
		protos[v] = mmv.New(schedule, f, graph.NodeID(v), contents[v], noising, rng.New())
	}
	s.done = func(v int) bool { return contents[v].Done() }
	s.reset = func(v int, source bool, seed uint64, _ int64) radio.Protocol {
		contents[v].Reset(source, decay.Message{Data: 1})
		protos[v].Rebind(contents[v])
		rng.Reseed(protos[v].Rng(), seed, 0xe0, uint64(v))
		return protos[v]
	}
	return s
}

// payloads returns k payloads of rings.PayloadBits and the fresh-run
// draw that randomizes them from (seed, tag).
func payloads(k int, tag uint64) ([]rlnc.Message, func(seed uint64)) {
	msgs := make([]rlnc.Message, k)
	for i := range msgs {
		msgs[i] = bitvec.New(rings.PayloadBits)
	}
	r := rng.New()
	return msgs, func(seed uint64) {
		rng.Reseed(r, seed, tag)
		for i := range msgs {
			msgs[i].Randomize(r.Uint64)
		}
	}
}

// gstMultiStack is Theorem 1.2: k messages over the GST schedule of
// known topology with RLNC content. The GST is rooted at src, which
// holds all k messages; a completed run is verified by decoding every
// node's buffer. It has no carryover epochs.
func gstMultiStack(g *graph.Graph, k int, src graph.NodeID) *sparseStack {
	f := gst.Flatten(gst.Construct(g, src))
	schedule := mmv.NewSchedule(g.N())
	s := newSparse(g, false, src)
	s.freshOnly = true
	var msgs []rlnc.Message
	msgs, s.fresh = payloads(k, 0x12)
	protos := make([]*mmv.Protocol, g.N())
	contents := make([]*mmv.RLNC, g.N())
	for v := range protos {
		buf := rlnc.NewBuffer(0, k, rings.PayloadBits)
		buf.SetOnFull(s.ds.Tick)
		contents[v] = mmv.NewRLNC(buf, rng.New())
		protos[v] = mmv.New(schedule, f, graph.NodeID(v), contents[v], false, rng.New())
	}
	s.done = func(v int) bool { return contents[v].Done() }
	s.reset = func(v int, source bool, seed uint64, _ int64) radio.Protocol {
		if source {
			contents[v].Buffer().ResetSource(msgs)
		} else {
			contents[v].Buffer().Reset()
		}
		rng.Reseed(contents[v].Rng(), seed, 0x13, uint64(v))
		protos[v].Rebind(contents[v])
		rng.Reseed(protos[v].Rng(), seed, 0x14, uint64(v))
		return protos[v]
	}
	s.check = func() bool {
		for _, c := range contents {
			got, ok := c.Buffer().Decode()
			if !ok {
				return false
			}
			for i := range msgs {
				if !bitvec.Equal(got[i], msgs[i]) {
					return false
				}
			}
		}
		return true
	}
	return s
}

// ringStack is the full unknown-topology pipeline of Theorem 1.1
// (cfg.K == 0) or Theorem 1.3 (cfg.K > 0, src holding the k messages,
// randomized from the seed on fresh runs), capped by cfg's compiled
// schedule. Its nodes share one GST view, each writing its own row as
// it learns it; node v's RNG is reseeded from (seed, tag, v) every run.
func ringStack(g *graph.Graph, cfg rings.Config, src graph.NodeID, tag uint64) *sparseStack {
	f := gst.NewFlat(g.N())
	s := newSparse(g, true, src)
	s.own = cfg.TotalRounds()
	var msgs []rlnc.Message
	if cfg.K > 0 {
		msgs, s.fresh = payloads(cfg.K, 0x15)
	}
	held := func(source bool) []rlnc.Message {
		if source {
			return msgs
		}
		return nil
	}
	protos := make([]*rings.Protocol, g.N())
	for v := range protos {
		source := graph.NodeID(v) == src
		protos[v] = rings.New(cfg, f, graph.NodeID(v), source, held(source), rng.New())
		if cfg.K > 0 {
			protos[v].Store().SetOnAllDecodable(s.ds.Tick)
		} else {
			protos[v].SingleContent().DoneSet = &s.ds
		}
	}
	s.done = func(v int) bool {
		if cfg.K > 0 {
			return protos[v].Store().CanDecodeAll()
		}
		return protos[v].Has()
	}
	s.reset = func(v int, source bool, seed uint64, _ int64) radio.Protocol {
		p := protos[v]
		p.Reset(source, held(source))
		rng.Reseed(p.Rng(), seed, tag, uint64(v))
		return p
	}
	return s
}

// waveStack is the collision wave of E23 from src: the Theorem 1.1
// layering primitive as a standalone broadcast, which floods for at
// most horizon rounds per run (lowered to a positive limit) and then
// goes silent. It draws no randomness: collisions are the signal, so
// the engine runs with collision detection.
func waveStack(g *graph.Graph, src graph.NodeID, horizon int64) *sparseStack {
	s := newSparse(g, true, src)
	s.own = horizon
	protos := make([]*beep.Wave, g.N())
	for v := range protos {
		protos[v] = beep.NewWave(graph.NodeID(v) == src, horizon)
		protos[v].DoneSet = &s.ds
	}
	s.done = func(v int) bool { return protos[v].Level() >= 0 }
	s.reset = func(v int, source bool, _ uint64, budget int64) radio.Protocol {
		protos[v].Reset(source, budget)
		return protos[v]
	}
	return s
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
