package beep

// DenseWave is the structure-of-arrays collision wave for the
// radio.Dense engine: Theorem 1.1's BFS layering primitive at
// million-node scale. Per-node state is the shared radio.Spread (the
// level is the first-reception round plus one) — no RNG at all, the
// wave is deterministic.
//
// Semantics match Wave exactly: the source (level 0) transmits the
// 1-bit Pulse in rounds [0, horizon); a node first hearing a signal —
// a delivered packet or, under collision detection, the ⊤ symbol — in
// round r sets level r+1 and transmits in rounds [r+1, horizon).
// Correctness of the layering (level == BFS distance on the ideal
// channel) REQUIRES CollisionDetection: without CD a listener with two
// or more pulsing neighbors hears silence and the wave stalls wherever
// layers are dense.
//
// One deviation from the per-node Wave, invisible in the levels: only
// frontier nodes (triggered, with at least one untriggered neighbor)
// transmit. A retired triggered node is adjacent to no listener — its
// neighbors are all triggered, and triggered nodes never listen — so
// every listener's per-round hear count is identical to the
// "all triggered transmit" schedule, including under per-link erasure
// (drops are keyed by (round, link), independent of other links).
// Transmissions and collision counts are lower; levels, trigger
// rounds, and completion are byte-identical to sparse Wave runs, and
// byte-identical across any Config.Workers setting.
//
// After the horizon the wave is over: nobody transmits and nobody
// listens (the dense mirror of Wave's post-horizon Sleep), so channel
// models cannot inject post-horizon observations.

import (
	"math/bits"

	"radiocast/internal/bitvec"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
)

// DenseWave implements radio.DenseProtocol for the collision-wave
// layering.
type DenseWave struct {
	radio.Spread // triggered set, frontier, listeners; Done, EndRound

	horizon int64
	silent  bitvec.Vec   // all-zero listener words for rounds >= horizon
	pkt     radio.Packet // Pulse{}, boxed once
}

var _ radio.DenseProtocol = (*DenseWave)(nil)

// NewDenseWave creates the SoA collision wave on g from source.
// horizon must be at least the source eccentricity for full coverage
// on the ideal channel (the wave then completes in exactly that many
// rounds); lossy channels need slack on top.
func NewDenseWave(g *graph.Graph, source graph.NodeID, horizon int64) *DenseWave {
	return &DenseWave{
		Spread:  radio.NewSpread(g, source, bitvec.Vec{}),
		horizon: horizon,
		silent:  bitvec.New(g.N()),
		pkt:     Pulse{},
	}
}

// AppendTransmitters implements radio.DenseProtocol: every frontier
// node pulses deterministically until the horizon.
func (w *DenseWave) AppendTransmitters(r int64, lo, hi graph.NodeID, dst []radio.NodeID) []radio.NodeID {
	if r >= w.horizon {
		return dst
	}
	words := w.FrontierWords()
	end := (int(hi) + 63) >> 6
	for wi := w.NextFrontierWord(int(lo)>>6, end); wi < end; wi = w.NextFrontierWord(wi+1, end) {
		word := words[wi]
		for word != 0 {
			dst = append(dst, graph.NodeID(wi<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// ListenWords implements radio.DenseProtocol: every untriggered node
// listens until the horizon; afterwards the wave sleeps.
func (w *DenseWave) ListenWords(r int64) []uint64 {
	if r >= w.horizon {
		return w.silent.Words()
	}
	return w.Spread.ListenWords(r)
}

// Packet implements radio.DenseProtocol: every pulse is the 1-bit
// Pulse.
func (w *DenseWave) Packet(int64, graph.NodeID) radio.Packet { return w.pkt }

// Deliver implements radio.DenseProtocol: any signal — packet or ⊤ —
// triggers the listener. Marking the newly bit is v-local; promotion
// (which touches neighbors) waits for EndRound.
func (w *DenseWave) Deliver(_ int64, v graph.NodeID, out radio.Outcome) {
	if out.Collision || out.Packet != nil {
		w.Hear(v)
	}
}

// TriggeredCount returns the number of nodes the wave has reached.
func (w *DenseWave) TriggeredCount() int { return w.InformedCount() }

// Level returns v's learned BFS level — one more than the round it
// first heard a signal, 0 at the source — or -1 if the wave has not
// arrived (matching Wave.Level).
func (w *DenseWave) Level(v graph.NodeID) int {
	if !w.Informed(v) {
		return -1
	}
	return int(w.RecvRound(v)) + 1
}

// Horizon returns the configured wave horizon.
func (w *DenseWave) Horizon() int64 { return w.horizon }
