// Package mmv implements the transmission schedules atop a GST:
//
//   - the fast/slow schedule of Section 3.2, which is multi-message
//     viable (Definition 3.1): it broadcasts in O(D + log^2 n)-shaped
//     time even when scheduled nodes lacking content jam their slots;
//   - its single-message instantiation (the [7]-style broadcast used
//     as a black box by Theorem 1.1), and
//   - its RLNC instantiation (Section 3.3.2), which yields the optimal
//     k-message broadcast of Theorem 1.2 in the known-topology setting.
//
// Schedule (Section 3.2). In round t, a node u at BFS level l with
// rank r and virtual distance d:
//
//	(a) fast slot:  t ≡ 2(l + 3r) (mod M), M = 6(⌈log n⌉ + 2):
//	    u transmits — a stretch start sends fresh content, an interior
//	    stretch node relays the packet received from its parent in the
//	    previous fast round. Only nodes with a same-rank child
//	    transmit (see DESIGN.md: this makes Lemma 3.5 exact).
//	(b) slow slot:  t ≡ 1 + 2d (mod 6): u transmits fresh content with
//	    probability 2^-((t-1-2d)/6 mod ⌈log n⌉).
//
// Fast slots fall on even rounds and slow slots on odd rounds, so the
// two kinds never collide with each other. The slow slots are keyed by
// virtual distance — not by level as in [7, 19] — which is what makes
// the schedule MMV (the crucial change enabling the backwards
// analysis).
package mmv

import (
	"math/rand"

	"radiocast/internal/gst"
	"radiocast/internal/radio"
	"radiocast/internal/rlnc"
	"radiocast/internal/sched"
)

// Schedule fixes the timing parameters.
type Schedule struct {
	// L is ⌈log2 n⌉.
	L int
	// M is the fast-slot period, 6(L+2): large enough that two
	// distinct ranks never share a (level, slot) pair.
	M int64
}

// NewSchedule derives the schedule for network-size parameter n.
func NewSchedule(n int) Schedule {
	l := sched.LogN(n)
	return Schedule{L: l, M: 6 * int64(l+2)}
}

// FastSlot reports whether t is the fast slot of (level, rank).
func (s Schedule) FastSlot(t int64, level, rank int32) bool {
	want := (2 * (int64(level) + 3*int64(rank))) % s.M
	return t%s.M == want
}

// SlowProb returns the transmission probability of the slow slot at
// round t for virtual distance d, or 0 if t is not a slow slot of d.
func (s Schedule) SlowProb(t int64, d int32) float64 {
	base := 1 + 2*int64(d)
	if t < base || (t-base)%6 != 0 {
		return 0
	}
	exp := ((t - base) / 6) % int64(s.L)
	return 1 / float64(int64(1)<<uint(exp))
}

// Content is the pluggable payload layer of the schedule.
type Content interface {
	// Fresh produces new content for a stretch-start fast slot or a
	// slow slot; nil means the node has nothing to send.
	Fresh() radio.Packet
	// OnReceive consumes a received content packet.
	OnReceive(pkt radio.Packet, from radio.NodeID)
	// Done reports completion for this node (harness predicate).
	Done() bool
}

// Protocol runs the schedule for one node. Its GST knowledge is row v
// of a shared gst.Flat — filled centrally by gst.Flatten (Theorem 1.2)
// or by the node itself after the distributed construction (Theorems
// 1.1 and 1.3); the protocol reads no other row.
type Protocol struct {
	sched   Schedule
	f       *gst.Flat
	v       radio.NodeID
	content Content
	rng     *rand.Rand
	// Noising makes the node jam scheduled slots when content is nil —
	// the MMV adversary of Definition 3.1.
	noising bool
	// levelKeyedSlow keys slow slots by BFS level instead of virtual
	// distance — the [7,19]-style schedule. It is NOT multi-message
	// viable; it exists as the ablation of experiment A1.
	levelKeyedSlow bool

	relay radio.Packet // packet received from the parent's last fast slot
	// relayBuf is the scratch behind relay for coded packets: an
	// incoming *rlnc.Packet aliases the sender's air scratch, which is
	// only valid within its round, so the relay copy lives here (one
	// backing per node, reused across relays — no steady-state
	// allocation).
	relayBuf rlnc.Packet
}

var _ radio.Protocol = (*Protocol)(nil)

// New creates the schedule protocol for node v, reading its row of f.
func New(s Schedule, f *gst.Flat, v radio.NodeID, content Content, noising bool, rng *rand.Rand) *Protocol {
	return &Protocol{sched: s, f: f, v: v, content: content, rng: rng, noising: noising}
}

// NewLevelKeyed creates the ablation variant whose slow slots are
// keyed by level, as in the pre-MMV schedules of [7, 19].
func NewLevelKeyed(s Schedule, f *gst.Flat, v radio.NodeID, content Content, noising bool, rng *rand.Rand) *Protocol {
	p := New(s, f, v, content, noising, rng)
	p.levelKeyedSlow = true
	return p
}

// Content returns the node's content layer.
func (p *Protocol) Content() Content { return p.content }

// Rng exposes the protocol's RNG so reuse harnesses can reseed it.
func (p *Protocol) Rng() *rand.Rand { return p.rng }

// Rebind reconfigures the protocol in place for a new run (or a new
// epoch of a ring pipeline): fresh content layer, relay state cleared,
// no allocation. The GST row is re-read on every Act, so a row the
// node rewrote since is picked up as is. The schedule, noising flag,
// and RNG binding are unchanged; reseeding the RNG is the caller's job.
func (p *Protocol) Rebind(content Content) {
	p.content = content
	p.relay = nil
}

// retain converts a just-received packet into a form safe to hold
// across rounds: coded packets alias the sender's per-round air
// scratch and are copied into relayBuf; every other packet type is an
// immutable boxed value and is returned as-is.
func (p *Protocol) retain(pkt radio.Packet) radio.Packet {
	rp, ok := pkt.(*rlnc.Packet)
	if !ok {
		return pkt
	}
	if p.relayBuf.Coeff.Len() != rp.Coeff.Len() || p.relayBuf.Payload.Len() != rp.Payload.Len() {
		p.relayBuf = rlnc.Packet{Gen: rp.Gen, Coeff: rp.Coeff.Clone(), Payload: rp.Payload.Clone()}
		return &p.relayBuf
	}
	p.relayBuf.Gen = rp.Gen
	p.relayBuf.Coeff.CopyFrom(rp.Coeff)
	p.relayBuf.Payload.CopyFrom(rp.Payload)
	return &p.relayBuf
}

// Act implements radio.Protocol.
func (p *Protocol) Act(t int64) radio.Action {
	f, v := p.f, p.v
	if !f.Member(v) {
		return radio.Listen // not part of the structure (failed setup)
	}
	if t%2 == 0 {
		// The row's bool first: FastSlot's two divisions are skipped
		// for the nodes that never transmit fast.
		if !f.SameRankChild[v] || !p.sched.FastSlot(t, f.Level[v], f.Rank[v]) {
			return radio.Listen
		}
		var pkt radio.Packet
		if f.StretchStart[v] {
			pkt = p.content.Fresh()
		} else {
			pkt = p.relay
			p.relay = nil // one relay per received wave
		}
		switch {
		case pkt != nil:
			return radio.Transmit(pkt)
		case p.noising:
			return radio.Transmit(radio.NoisePacket{})
		default:
			return radio.Listen
		}
	}
	slowKey := f.Vdist[v]
	if p.levelKeyedSlow {
		slowKey = f.Level[v]
	}
	prob := p.sched.SlowProb(t, slowKey)
	if prob == 0 || p.rng.Float64() >= prob {
		return radio.Listen
	}
	if pkt := p.content.Fresh(); pkt != nil {
		return radio.Transmit(pkt)
	}
	if p.noising {
		return radio.Transmit(radio.NoisePacket{})
	}
	return radio.Listen
}

// Observe implements radio.Protocol.
func (p *Protocol) Observe(t int64, out radio.Outcome) {
	if out.Packet == nil {
		return
	}
	if _, isNoise := out.Packet.(radio.NoisePacket); isNoise {
		return
	}
	p.content.OnReceive(out.Packet, out.From)
	// Buffer the parent's fast wave for relaying two rounds later.
	f, v := p.f, p.v
	if f.Parent[v] == out.From && f.ParentRank[v] == f.Rank[v] &&
		p.sched.FastSlot(t, f.Level[v]-1, f.Rank[v]) {
		p.relay = p.retain(out.Packet)
	}
}
