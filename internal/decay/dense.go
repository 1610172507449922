package decay

// Dense is the structure-of-arrays Decay broadcast for the
// radio.Dense engine, on any phase Schedule (plain Decay via NewDense,
// the CR baseline via cr.NewDense): one value holds every node's state
// in bitsets and flat arrays, so a million-node run costs ~25
// bytes/node instead of one Broadcast object + one rand.Rand per node.
//
// Differences from the per-node Broadcast (same schedule, same
// delivery semantics, different randomness plumbing):
//
//   - Coin flips are keyed draws Mix3(key, node, round) instead of
//     per-node xoshiro streams, so AppendTransmitters needs no mutable
//     RNG state and partitions can draw concurrently. Runs are NOT
//     byte-comparable with Broadcast runs; they ARE byte-comparable
//     with a sparse protocol that draws the same keyed coins (the twin
//     fixture in dense_test.go), and Dense(Workers=a) == Dense(Workers=b)
//     at any a, b.
//   - Only frontier nodes (informed, with at least one uninformed
//     neighbor) flip coins. A retired informed node's transmission
//     could only reach informed neighbors, which never listen, so the
//     informed-set dynamics are provably identical to "all informed
//     participate" under the same draws — including under per-link
//     erasure, whose drops are keyed by (round, link) and therefore
//     unaffected by which other links carry transmissions.
//     Transmissions and collision counts are lower.
//   - All uninformed nodes listen every round (the engine masks
//     transmitters out).

import (
	"math/bits"

	"radiocast/internal/bitvec"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// DenseKey derives the keyed-draw seed for the dense Decay
// broadcast's transmit coins; exported so twin tests can replay the
// exact coins.
func DenseKey(seed uint64) uint64 { return rng.Mix(seed, 0xdd) }

// Dense implements radio.DenseProtocol for single-message Decay.
type Dense struct {
	g     *graph.Graph
	sched Schedule
	key   uint64 // keyed-draw seed for transmit coins

	informed bitvec.Vec // has the message
	frontier bitvec.Vec // informed with >= 1 uninformed neighbor
	newly    bitvec.Vec // received this round; promoted in EndRound
	listen   bitvec.Vec // complement of informed (maintained incrementally)

	uninformedDeg []int32 // per-node count of uninformed neighbors
	recvRound     []int64 // round of first reception (-1 for the source)
	informedCount int

	pkt radio.Packet // the message, boxed once
	src graph.NodeID
}

var _ radio.DenseProtocol = (*Dense)(nil)

// NewDense creates the SoA plain Decay broadcast on g from source, with
// transmit coins keyed on DenseKey(seed).
func NewDense(g *graph.Graph, seed uint64, source graph.NodeID) *Dense {
	return NewDenseSchedule(g, PlainSchedule(g.N()), DenseKey(seed), source)
}

// NewDenseSchedule creates the SoA Decay broadcast on g from source on
// schedule s, with transmit coins keyed on key (the schedule owner's
// derivation of the run seed, e.g. DenseKey or cr.DenseKey).
func NewDenseSchedule(g *graph.Graph, s Schedule, key uint64, source graph.NodeID) *Dense {
	n := g.N()
	d := &Dense{
		g:             g,
		sched:         s,
		key:           key,
		informed:      bitvec.New(n),
		frontier:      bitvec.New(n),
		newly:         bitvec.New(n),
		listen:        bitvec.New(n),
		uninformedDeg: make([]int32, n),
		recvRound:     make([]int64, n),
		pkt:           Message{Data: int64(source)},
		src:           source,
	}
	d.listen.Ones()
	for v := 0; v < n; v++ {
		d.uninformedDeg[v] = int32(g.Degree(graph.NodeID(v)))
		d.recvRound[v] = -1
	}
	if n > 0 {
		d.inform(source, -1)
	}
	return d
}

// inform flips v to informed (received in round r; -1 for the source),
// maintaining the listen complement, the neighbors' uninformed-degree
// counts, and the frontier on both sides.
func (d *Dense) inform(v graph.NodeID, r int64) {
	d.informed.Set(int(v))
	d.listen.Clear(int(v))
	d.recvRound[v] = r
	d.informedCount++
	for _, u := range d.g.Neighbors(v) {
		d.uninformedDeg[u]--
		if d.uninformedDeg[u] == 0 {
			d.frontier.Clear(int(u)) // no-op for uninformed u
		}
	}
	if d.uninformedDeg[v] > 0 {
		d.frontier.Set(int(v))
	}
}

// AppendTransmitters implements radio.DenseProtocol: each frontier
// node in [lo, hi) transmits in slot i of a phase with probability
// 2^-(i+1), decided by one keyed draw — a 64-bit uniform is below
// 2^(63-i) with exactly that probability.
func (d *Dense) AppendTransmitters(r int64, lo, hi graph.NodeID, dst []radio.NodeID) []radio.NodeID {
	slot := d.sched.Slot(r)
	threshold := uint64(1) << (63 - uint(slot))
	words := d.frontier.Words()
	for wi := int(lo) >> 6; wi<<6 < int(hi); wi++ {
		w := words[wi]
		for w != 0 {
			v := graph.NodeID(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			if rng.Mix3(d.key, uint64(v), uint64(r)) < threshold {
				dst = append(dst, v)
			}
		}
	}
	return dst
}

// ListenWords implements radio.DenseProtocol: every uninformed node
// listens every round.
func (d *Dense) ListenWords(int64) []uint64 { return d.listen.Words() }

// Packet implements radio.DenseProtocol: every transmitter sends the
// one broadcast message.
func (d *Dense) Packet(int64, graph.NodeID) radio.Packet { return d.pkt }

// Deliver implements radio.DenseProtocol. Marking a bit in the newly
// set is v-local and order-independent; promotion to informed (which
// touches neighbors) waits for EndRound.
func (d *Dense) Deliver(_ int64, v graph.NodeID, out radio.Outcome) {
	if out.Packet == nil {
		return // ⊤ or channel noise: Decay ignores collisions
	}
	if _, ok := out.Packet.(Message); ok {
		d.newly.Set(int(v))
	}
}

// EndRound implements radio.DenseProtocol: promote this round's
// receivers in ascending node order.
func (d *Dense) EndRound(r int64) {
	words := d.newly.Words()
	for wi, w := range words {
		for w != 0 {
			v := graph.NodeID(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			d.inform(v, r)
		}
		words[wi] = 0
	}
}

// Done reports whether every node is informed.
func (d *Dense) Done() bool { return d.informedCount == d.g.N() }

// InformedCount returns the number of informed nodes.
func (d *Dense) InformedCount() int { return d.informedCount }

// Informed reports whether v has the message.
func (d *Dense) Informed(v graph.NodeID) bool { return d.informed.Get(int(v)) }

// RecvRound returns the round v first received the message (-1 for
// the source or a still-uninformed node).
func (d *Dense) RecvRound(v graph.NodeID) int64 { return d.recvRound[v] }
