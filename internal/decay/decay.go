// Package decay implements the Decay protocol of Bar-Yehuda, Goldreich
// and Itai [2] and its derivatives used throughout the paper:
//
//   - Broadcast: the single-message Decay broadcast on a phase
//     Schedule: classic BGI Decay, O(D log n + log^2 n) rounds w.h.p.
//     (the paper's baseline), or the FastDecay schedule of the
//     Czumaj–Rytter / Kowalski–Pelc baseline (package cr).
//   - MMV: the level-clocked Decay schedule of Lemma 3.2, which remains
//     correct when nodes lacking the message jam their scheduled slots
//     with noise (the multi-message-viable property, Definition 3.1).
//   - Layering: the Decay-based BFS layering of Section 2.2.2,
//     O(D log^2 n) rounds without collision detection.
//
// The Decay phase structure (Section 2.2.1): rounds are grouped into
// phases of L = ⌈log2 n⌉ rounds; in slot i of a phase a participating
// node transmits with probability 2^-(i+1). Lemma 2.2: a listener with
// at least one participating neighbor receives within a phase with
// probability ≥ 1/8.
package decay

import (
	"math/rand"

	"radiocast/internal/radio"
	"radiocast/internal/sched"
)

// Message is the broadcast payload packet. Data is an opaque value
// used by tests to verify end-to-end integrity.
type Message struct {
	Data int64
}

// Bits implements radio.Packet: one id plus payload, O(log n) bits.
func (Message) Bits() int { return 64 }

// TransmitProb returns the Decay transmission probability for slot
// `slot` of a phase: 2^-(slot+1), so a phase of length L sweeps the
// densities 1/2, 1/4, ..., 2^-L.
func TransmitProb(slot int) float64 {
	return 1 / float64(int64(2)<<uint(slot))
}

// Schedule is a Decay phase schedule: the lengths of the phases a
// participating node sweeps, in slot i of each transmitting with
// probability TransmitProb(i). Every SparseEvery-th phase is full-length
// (FullLen = ⌈log n⌉ slots, so dense neighborhoods still resolve); the
// phases between are short (ShortLen slots). Plain BGI Decay is the
// special case SparseEvery = 1 (PlainSchedule); the Czumaj–Rytter /
// Kowalski–Pelc baseline is another schedule of the same protocol
// (cr.NewParams). Build one with NewSchedule or PlainSchedule, which
// precompute the cycle length.
type Schedule struct {
	ShortLen    int
	FullLen     int
	SparseEvery int
	cycle       int64 // (SparseEvery-1)·ShortLen + FullLen
}

// NewSchedule returns the schedule of SparseEvery-1 short phases of
// shortLen slots followed by one full phase of fullLen slots.
func NewSchedule(shortLen, fullLen, sparseEvery int) Schedule {
	return Schedule{ShortLen: shortLen, FullLen: fullLen, SparseEvery: sparseEvery,
		cycle: int64(sparseEvery-1)*int64(shortLen) + int64(fullLen)}
}

// PlainSchedule is BGI Decay on n nodes: every phase full-length, so
// round r is in slot r mod ⌈log n⌉.
func PlainSchedule(n int) Schedule { return NewSchedule(0, sched.LogN(n), 1) }

// CycleLen returns the length of one short+...+full phase cycle.
func (s Schedule) CycleLen() int64 { return s.cycle }

// Slot maps round r to the Decay slot of its current phase.
func (s Schedule) Slot(r int64) int {
	off := r % s.cycle
	for i := 1; i < s.SparseEvery; i++ {
		if off < int64(s.ShortLen) {
			return int(off)
		}
		off -= int64(s.ShortLen)
	}
	return int(off)
}

// Broadcast is the single-message Decay broadcast protocol: a node that
// has the message participates in every phase of its schedule; nodes
// without it stay silent (contrast with MMV below).
type Broadcast struct {
	sched Schedule
	rng   *rand.Rand

	has       bool
	msg       Message
	pkt       radio.Packet // msg boxed once, reused every transmission
	RecvRound int64        // round of first reception (-1 for the source)

	// DoneSet, when non-nil, is ticked on the first reception (the
	// not-done -> done transition); initially-done sources are accounted
	// by the harness's post-reset scan.
	DoneSet *radio.DoneSet
}

var _ radio.Protocol = (*Broadcast)(nil)

// NewBroadcast creates the protocol for one node on schedule s. The
// source holds the message from the start.
func NewBroadcast(s Schedule, source bool, msg Message, rng *rand.Rand) *Broadcast {
	b := &Broadcast{sched: s, rng: rng}
	b.Reset(source, msg)
	return b
}

// Reset rewinds the protocol for a new run on the same schedule,
// allocation-free except for re-boxing the source's message. The RNG
// binding is unchanged; reseeding it is the caller's job.
func (b *Broadcast) Reset(source bool, msg Message) {
	b.has = source
	b.msg = msg
	b.RecvRound = -1
	if source {
		b.pkt = msg
	} else {
		b.pkt = nil
	}
}

// Has reports whether the node has received the message.
func (b *Broadcast) Has() bool { return b.has }

// Rng exposes the protocol's RNG so reuse harnesses can reseed it.
func (b *Broadcast) Rng() *rand.Rand { return b.rng }

// Act implements radio.Protocol.
func (b *Broadcast) Act(r int64) radio.Action {
	if !b.has {
		return radio.Listen // must keep listening every round
	}
	if b.rng.Float64() < TransmitProb(b.sched.Slot(r)) {
		return radio.Transmit(b.pkt)
	}
	return radio.Listen
}

// Observe implements radio.Protocol.
func (b *Broadcast) Observe(r int64, out radio.Outcome) {
	if b.has || out.Packet == nil {
		return
	}
	if m, ok := out.Packet.(Message); ok {
		b.has = true
		b.msg = m
		b.pkt = out.Packet // reuse the already-boxed message
		b.RecvRound = r
		b.DoneSet.Tick()
	}
}

// MMV is the Decay schedule of Lemma 3.2, clocked by BFS level: a node
// at distance l from the source is prompted only in rounds
// r ≡ l+1 (mod 3), with probability 2^-((r-l-1)/3 mod ⌈log n⌉). When
// prompted, a node holding the message sends it; a node without the
// message sends noise if Noising is set (the MMV adversary of
// Definition 3.1) and stays silent otherwise.
type MMV struct {
	rng     *rand.Rand
	l       int // ⌈log n⌉
	level   int64
	noising bool

	has       bool
	msg       Message
	pkt       radio.Packet // msg boxed once, reused every transmission
	RecvRound int64

	// DoneSet, when non-nil, is ticked on the first reception.
	DoneSet *radio.DoneSet
}

var _ radio.Protocol = (*MMV)(nil)

// NewMMV creates the Lemma 3.2 protocol for a node at BFS level
// `level`. The source is level 0 and holds the message.
func NewMMV(n int, level int, noising bool, msg Message, rng *rand.Rand) *MMV {
	m := &MMV{rng: rng, l: sched.LogN(n)}
	m.Reset(level, noising, msg)
	return m
}

// Reset rewinds the protocol for a new run on the same network size.
// The RNG binding is unchanged; reseeding it is the caller's job.
func (m *MMV) Reset(level int, noising bool, msg Message) {
	m.level = int64(level)
	m.noising = noising
	m.has = level == 0
	m.msg = msg
	m.RecvRound = -1
	if m.has {
		m.pkt = msg
	} else {
		m.pkt = nil
	}
}

// Has reports whether the node has received the message.
func (m *MMV) Has() bool { return m.has }

// Rng exposes the protocol's RNG so reuse harnesses can reseed it.
func (m *MMV) Rng() *rand.Rand { return m.rng }

// Act implements radio.Protocol.
func (m *MMV) Act(r int64) radio.Action {
	if r < m.level+1 || (r-m.level-1)%3 != 0 {
		return radio.Listen
	}
	exp := ((r - m.level - 1) / 3) % int64(m.l)
	p := 1 / float64(int64(1)<<uint(exp))
	if m.rng.Float64() >= p {
		return radio.Listen
	}
	if m.has {
		return radio.Transmit(m.pkt)
	}
	if m.noising {
		return radio.Transmit(radio.NoisePacket{})
	}
	return radio.Listen
}

// Observe implements radio.Protocol.
func (m *MMV) Observe(r int64, out radio.Outcome) {
	if m.has || out.Packet == nil {
		return
	}
	if msg, ok := out.Packet.(Message); ok {
		m.has = true
		m.msg = msg
		m.pkt = out.Packet
		m.RecvRound = r
		m.DoneSet.Tick()
	}
}
