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
//   - Coin flips are keyed draws Mix(key, node, round) instead of
//     per-node xoshiro streams, drawn through an rng.Prefix that
//     absorbs the key once, so AppendTransmitters needs no mutable
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
	radio.Spread // informed set, frontier, listeners; Done, InformedCount, EndRound

	sched Schedule
	coin  rng.Prefix   // transmit coins Mix(key, node, round), key absorbed
	pkt   radio.Packet // the message, boxed once
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
	return &Dense{
		Spread: radio.NewSpread(g, source, bitvec.Vec{}),
		sched:  s,
		coin:   rng.NewPrefix(key),
		pkt:    Message{Data: int64(source)},
	}
}

// AppendTransmitters implements radio.DenseProtocol: each frontier
// node in [lo, hi) transmits in slot i of a phase with probability
// 2^-(i+1), decided by one keyed draw — a 64-bit uniform is below
// 2^(63-i) with exactly that probability.
func (d *Dense) AppendTransmitters(r int64, lo, hi graph.NodeID, dst []radio.NodeID) []radio.NodeID {
	slot := d.sched.Slot(r)
	threshold := uint64(1) << (63 - uint(slot))
	words := d.FrontierWords()
	end := (int(hi) + 63) >> 6
	for wi := d.NextFrontierWord(int(lo)>>6, end); wi < end; wi = d.NextFrontierWord(wi+1, end) {
		w := words[wi]
		for w != 0 {
			v := graph.NodeID(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			if d.coin.Mix2(uint64(v), uint64(r)) < threshold {
				dst = append(dst, v)
			}
		}
	}
	return dst
}

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
		d.Hear(v)
	}
}
