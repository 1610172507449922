package radio

import (
	"math/bits"
	"sync/atomic"

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
//
// frontier and newly each carry a summary with one bit per word: bit
// j of summary word i is set iff word 64i+j is non-zero. A round with
// a thin frontier then costs the words that hold work, not n/64:
// NextFrontierWord skips the zero frontier words, and EndRound visits
// only the newly words that Hear marked. Each summary lives in the
// tail of its bitset's own allocation.
type Spread struct {
	g        *graph.Graph
	informed bitvec.Vec
	listen   bitvec.Vec
	keep     bitvec.Vec // listeners that stay in listen once informed (zero Vec: none)

	frontier, frontierSum []uint64
	newly, newlySum       []uint64

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
		listen:        bitvec.New(n),
		keep:          keep,
		uninformedDeg: make([]int32, n),
		stamp:         make([]int64, n),
	}
	s.frontier, s.frontierSum = summarized(n)
	s.newly, s.newlySum = summarized(n)
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

// summarized returns an n-bit bitset's words and, carved from the
// same allocation, its one-bit-per-word summary.
func summarized(n int) (words, sum []uint64) {
	nw := (n + 63) >> 6
	buf := make([]uint64, nw+(nw+63)>>6)
	return buf[:nw:nw], buf[nw:]
}

// inform flips v to informed (received in round r; -1 for the source),
// maintaining the listen set, the neighbours' uninformed-degree counts
// and the frontier with its summary on both sides.
func (s *Spread) inform(v graph.NodeID, r int64) {
	s.informed.Set(int(v))
	if s.keep.Len() == 0 || !s.keep.Get(int(v)) {
		s.listen.Clear(int(v))
	}
	s.stamp[v] = r
	s.count++
	// Locals, so the loop does not reload the slice headers after each store.
	deg, front := s.uninformedDeg, s.frontier
	for _, u := range s.g.Neighbors(v) {
		d := deg[u] - 1
		deg[u] = d
		if d == 0 { // a no-op for uninformed u
			wi := u >> 6
			front[wi] &^= 1 << (uint(u) & 63)
			if front[wi] == 0 {
				s.frontierSum[wi>>6] &^= 1 << (uint(wi) & 63)
			}
		}
	}
	if deg[v] > 0 {
		wi := v >> 6
		front[wi] |= 1 << (uint(v) & 63)
		s.frontierSum[wi>>6] |= 1 << (uint(wi) & 63)
	}
}

// Hear records that v received the message in this round; an informed
// v (a kept listener) is left as it is. It writes v's bit and, when v's
// word gains its first bit of the round, sets that word's summary bit
// by an atomic OR: partitions own whole words, so the word write needs
// no synchronisation, but two partitions can share a summary word.
// Deliver may therefore call it from v's owner partition.
func (s *Spread) Hear(v graph.NodeID) {
	if s.informed.Get(int(v)) {
		return
	}
	wi := v >> 6
	w := s.newly[wi]
	if w == 0 {
		orUint64(&s.newlySum[wi>>6], 1<<(uint(wi)&63))
	}
	s.newly[wi] = w | 1<<(uint(v)&63)
}

// orUint64 sets the bits of mask in *p atomically (go 1.22 has no
// atomic.OrUint64).
func orUint64(p *uint64, mask uint64) {
	for {
		old := atomic.LoadUint64(p)
		if old&mask == mask || atomic.CompareAndSwapUint64(p, old, old|mask) {
			return
		}
	}
}

// EndRound implements DenseProtocol's round close: it promotes round
// r's receivers in ascending node order, visiting only the newly words
// that Hear marked.
func (s *Spread) EndRound(r int64) {
	for si, sw := range s.newlySum {
		if sw == 0 {
			continue
		}
		s.newlySum[si] = 0
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			w := s.newly[wi]
			s.newly[wi] = 0
			for w != 0 {
				v := graph.NodeID(wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
				s.inform(v, r)
			}
		}
	}
}

// ListenWords implements DenseProtocol's listener set: every
// uninformed node and every kept node listens every round.
func (s *Spread) ListenWords(int64) []uint64 { return s.listen.Words() }

// FrontierWords returns the frontier bitset's words, read-only.
func (s *Spread) FrontierWords() []uint64 { return s.frontier }

// NextFrontierWord returns the index of the first non-zero frontier
// word in [wi, end), or end if there is none. A scan of the frontier
// over a word range runs
//
//	for wi := s.NextFrontierWord(lo, end); wi < end; wi = s.NextFrontierWord(wi+1, end)
//
// and so reads one summary word per 64 frontier words it skips.
func (s *Spread) NextFrontierWord(wi, end int) int {
	for wi < end {
		si := wi >> 6
		if sw := s.frontierSum[si] >> (uint(wi) & 63); sw != 0 {
			return min(wi+bits.TrailingZeros64(sw), end)
		}
		wi = (si + 1) << 6
	}
	return end
}

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
