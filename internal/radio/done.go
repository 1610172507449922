package radio

import (
	"math/bits"

	"radiocast/internal/bitvec"
	"radiocast/internal/graph"
)

// DoneSet is an O(1) completion counter shared between a harness
// runner and the per-node protocol (or content) layers. Instead of the
// runner scanning all n nodes after every executed round ("is every
// node done yet?" — an O(n·R) predicate over a run of R rounds), each
// node ticks the set exactly once, at the moment it first completes,
// and the runner's RunUntil predicate reduces to one integer compare.
//
// Contract:
//
//   - The runner calls Reset(n) after constructing (or resetting) the
//     protocol stack, then performs one O(n) scan ticking every node
//     that *starts* completed (sources). From then on, protocols tick
//     only on a not-done -> done transition inside Observe/OnReceive/
//     Add, so every node contributes exactly one tick.
//   - A nil *DoneSet is legal everywhere a protocol holds one: ticking
//     nil is a no-op, keeping the hook optional for callers that still
//     use scanning predicates.
type DoneSet struct {
	done   int
	target int
}

// Reset rewinds the counter for a new run over target nodes.
func (d *DoneSet) Reset(target int) {
	d.done = 0
	d.target = target
}

// Tick records one node's first completion. Ticking a nil set is a
// no-op.
func (d *DoneSet) Tick() {
	if d != nil {
		d.done++
	}
}

// Done reports whether every expected node has completed.
func (d *DoneSet) Done() bool { return d.done >= d.target }

// Count returns the completions recorded so far.
func (d *DoneSet) Count() int { return d.done }

// Spread is the informed-set state of a single-message dense broadcast:
// Decay (and CR on its schedule), the collision wave and the MMV
// schedule all spread one message through it. A protocol embeds it by
// value, so it costs no allocation beyond its own arrays, and calls
// Hear from Deliver; the embedded EndRound promotes the round's
// receivers.
//
// Per node it keeps four bitsets — informed, newly (heard this round,
// promoted at EndRound), listen (uninformed ∪ keep) and frontier
// (informed with at least one uninformed neighbour) — the count of
// uninformed neighbours and the stamp: the round of first reception,
// -1 at the source and at uninformed nodes. Only frontier nodes can
// reach a listener that still needs the message, which is what lets
// every port prune its transmitters to the frontier.
type Spread struct {
	g        *graph.Graph
	informed bitvec.Vec
	newly    bitvec.Vec
	listen   bitvec.Vec
	frontier bitvec.Vec
	keep     bitvec.Vec // listeners that stay in listen once informed (zero Vec: none)

	uninformedDeg []int32
	stamp         []int64
	count         int
}

// NewSpread returns the state of a broadcast on g in which only source
// is informed. keep marks nodes that keep listening after they are
// informed (MMV's fast-slot relays); the zero Vec keeps none.
func NewSpread(g *graph.Graph, source graph.NodeID, keep bitvec.Vec) Spread {
	n := g.N()
	s := Spread{
		g:             g,
		informed:      bitvec.New(n),
		newly:         bitvec.New(n),
		listen:        bitvec.New(n),
		frontier:      bitvec.New(n),
		keep:          keep,
		uninformedDeg: make([]int32, n),
		stamp:         make([]int64, n),
	}
	s.listen.Ones()
	for v := 0; v < n; v++ {
		s.uninformedDeg[v] = int32(g.Degree(graph.NodeID(v)))
		s.stamp[v] = -1
	}
	if n > 0 {
		s.inform(source, -1)
	}
	return s
}

// inform flips v to informed (received in round r; -1 for the source),
// maintaining the listen set, the neighbours' uninformed-degree counts
// and the frontier on both sides.
func (s *Spread) inform(v graph.NodeID, r int64) {
	s.informed.Set(int(v))
	if s.keep.Len() == 0 || !s.keep.Get(int(v)) {
		s.listen.Clear(int(v))
	}
	s.stamp[v] = r
	s.count++
	for _, u := range s.g.Neighbors(v) {
		s.uninformedDeg[u]--
		if s.uninformedDeg[u] == 0 {
			s.frontier.Clear(int(u)) // no-op for uninformed u
		}
	}
	if s.uninformedDeg[v] > 0 {
		s.frontier.Set(int(v))
	}
}

// Hear records that v received the message in this round; an informed
// v (a kept listener) is left as it is. It writes only v's bit, so
// Deliver may call it from v's owner partition.
func (s *Spread) Hear(v graph.NodeID) {
	if !s.informed.Get(int(v)) {
		s.newly.Set(int(v))
	}
}

// EndRound implements DenseProtocol's round close: it promotes round
// r's receivers in ascending node order.
func (s *Spread) EndRound(r int64) {
	words := s.newly.Words()
	for wi, w := range words {
		for w != 0 {
			v := graph.NodeID(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			s.inform(v, r)
		}
		words[wi] = 0
	}
}

// ListenWords implements DenseProtocol's listener set: every
// uninformed node and every kept node listens every round.
func (s *Spread) ListenWords(int64) []uint64 { return s.listen.Words() }

// FrontierWords returns the frontier bitset's words, read-only.
func (s *Spread) FrontierWords() []uint64 { return s.frontier.Words() }

// InformedWords returns the informed bitset's words, read-only.
func (s *Spread) InformedWords() []uint64 { return s.informed.Words() }

// Done reports whether every node is informed.
func (s *Spread) Done() bool { return s.count == s.g.N() }

// InformedCount returns the number of informed nodes.
func (s *Spread) InformedCount() int { return s.count }

// Informed reports whether v has the message.
func (s *Spread) Informed(v graph.NodeID) bool { return s.informed.Get(int(v)) }

// RecvRound returns the round v first received the message (-1 for
// the source or a still-uninformed node).
func (s *Spread) RecvRound(v graph.NodeID) int64 { return s.stamp[v] }
