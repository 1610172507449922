// Package rlnc implements random linear network coding over F_2, the
// coding layer of the paper's multi-message broadcast algorithms
// (Section 3.3.1, following Ho et al. [14] and Haeupler [12]).
//
// The k messages are bit vectors m_1..m_k in F_2^l. A coded packet
// carries a coefficient vector α in F_2^k together with the payload
// Σ α_i·m_i. A node stores the packets it receives and, when prompted
// to send, transmits a fresh uniformly random combination of its
// stored packets. A node that has accumulated k linearly independent
// coefficient vectors reconstructs all messages by Gaussian
// elimination.
//
// The package also implements the projection-analysis primitives of
// [12] used in the proofs (and in our tests): Definition 3.8's
// "infected by μ" predicate and Proposition 3.9's decode criterion.
package rlnc

import (
	"fmt"
	"math/rand"

	"radiocast/internal/bitvec"
)

// Message is an l-bit message payload.
type Message = bitvec.Vec

// Packet is an RLNC-coded packet: payload = Σ_{i: Coeff[i]=1} m_i.
// Gen identifies the generation (batch) the packet codes over; packets
// from different generations must not be combined.
type Packet struct {
	Gen     int
	Coeff   bitvec.Vec
	Payload bitvec.Vec
}

// Bits reports the on-air size: coefficient header + payload + a small
// generation tag. With generations of size Θ(log n) the header is
// Θ(log n) bits, as required by Section 3.4.
func (p Packet) Bits() int { return p.Coeff.Len() + p.Payload.Len() + 16 }

// IsZero reports whether the packet carries no information.
func (p Packet) IsZero() bool { return p.Coeff.IsZero() }

// Buffer is a node's RLNC state for a single generation of k messages
// with l-bit payloads: the stored subspace plus the paired solver used
// for decoding. The zero value is not usable; construct with NewBuffer
// or NewSourceBuffer.
type Buffer struct {
	k, l   int
	gen    int
	solver *bitvec.Solver
	// rows holds one (coeff, payload) pair per independent dimension,
	// in insertion order; random combinations are drawn from these.
	rows []Packet
	// spare recycles row storage released by Reset, so a reset-reused
	// buffer stores its next run's rows without allocating.
	spare []Packet
	// air is the scratch packet returned by AirPacket: one struct and
	// one coefficient/payload backing reused across every transmission
	// this buffer makes.
	air Packet
	// unit is the preload scratch coefficient vector of ResetSource.
	unit bitvec.Vec
	// onFull, when non-nil, fires exactly once per run: on the Add
	// that makes the buffer decodable (rank reaches k).
	onFull func()
}

// NewBuffer returns an empty buffer for generation gen with k messages
// of l bits each.
func NewBuffer(gen, k, l int) *Buffer {
	if k <= 0 || l <= 0 {
		panic(fmt.Sprintf("rlnc: invalid dimensions k=%d l=%d", k, l))
	}
	return &Buffer{k: k, l: l, gen: gen, solver: bitvec.NewSolver(k, l)}
}

// NewSourceBuffer returns a buffer preloaded with the original
// messages (the source node's state): unit coefficient vectors paired
// with the raw payloads.
func NewSourceBuffer(gen int, msgs []Message, l int) *Buffer {
	b := NewBuffer(gen, len(msgs), l)
	for i, m := range msgs {
		if m.Len() != l {
			panic(fmt.Sprintf("rlnc: message %d has %d bits, want %d", i, m.Len(), l))
		}
		b.Add(Packet{Gen: gen, Coeff: bitvec.Unit(len(msgs), i), Payload: m.Clone()})
	}
	return b
}

// SetOnFull installs a hook fired by the Add that makes the buffer
// decodable (the rank-k transition). It fires at most once per run —
// subsequent packets are necessarily dependent. Harness runners point
// it at an O(1) completion counter (radio.DoneSet) so run predicates
// need not scan nodes.
func (b *Buffer) SetOnFull(fn func()) { b.onFull = fn }

// Reset empties the buffer for a new run with the same (gen, k, l).
// Row storage and the solver's internal rows are recycled, so the
// next run's insertions allocate nothing.
func (b *Buffer) Reset() {
	b.solver.Reset()
	b.spare = append(b.spare, b.rows...)
	b.rows = b.rows[:0]
}

// ResetSource resets the buffer and preloads it with the original
// messages (the source node's per-run state) — the reuse counterpart
// of NewSourceBuffer. The messages are copied, not retained.
func (b *Buffer) ResetSource(msgs []Message) {
	if len(msgs) != b.k {
		panic(fmt.Sprintf("rlnc: ResetSource with %d messages, want %d", len(msgs), b.k))
	}
	b.Reset()
	if b.unit.Len() != b.k {
		b.unit = bitvec.New(b.k)
	}
	for i, m := range msgs {
		if m.Len() != b.l {
			panic(fmt.Sprintf("rlnc: message %d has %d bits, want %d", i, m.Len(), b.l))
		}
		b.unit.Set(i)
		b.Add(Packet{Gen: b.gen, Coeff: b.unit, Payload: m})
		b.unit.Clear(i)
	}
}

// K returns the generation size.
func (b *Buffer) K() int { return b.k }

// Gen returns the generation id.
func (b *Buffer) Gen() int { return b.gen }

// Rank returns the dimension of the stored coefficient subspace.
func (b *Buffer) Rank() int { return b.solver.Rank() }

// Add stores a received packet. It returns true iff the packet was
// innovative (increased the rank). Packets from other generations are
// rejected with a panic: the caller routes packets by generation. The
// packet's vectors are copied, never retained, so callers may pass
// scratch-backed packets (AirPacket output).
func (b *Buffer) Add(p Packet) bool {
	if p.Gen != b.gen {
		panic(fmt.Sprintf("rlnc: packet for generation %d added to buffer %d", p.Gen, b.gen))
	}
	if !b.solver.Add(p.Coeff, p.Payload) {
		return false
	}
	var row Packet
	if n := len(b.spare); n > 0 {
		row = b.spare[n-1]
		b.spare = b.spare[:n-1]
		row.Gen = p.Gen
		row.Coeff.CopyFrom(p.Coeff)
		row.Payload.CopyFrom(p.Payload)
	} else {
		row = Packet{Gen: p.Gen, Coeff: p.Coeff.Clone(), Payload: p.Payload.Clone()}
	}
	b.rows = append(b.rows, row)
	if b.onFull != nil && b.solver.CanSolve() {
		b.onFull()
	}
	return true
}

// CanDecode reports whether all k messages are reconstructible
// (Proposition 3.9: infected by all of F_2^k ⇔ full rank).
func (b *Buffer) CanDecode() bool { return b.solver.CanSolve() }

// Decode reconstructs the k original messages via Gaussian
// elimination. ok is false while rank < k.
func (b *Buffer) Decode() (msgs []Message, ok bool) { return b.solver.Solve() }

// RandomPacket returns a fresh uniformly random combination of the
// stored packets — the transmission rule of Section 3.3.1. ok is false
// when the buffer is empty (nothing to send). The combination is drawn
// over the stored independent rows, which induces the uniform
// distribution over the stored subspace; the zero combination is
// permitted (a node with data still sends "something", which carries
// no information — equivalent to noise for receivers).
func (b *Buffer) RandomPacket(r *rand.Rand) (Packet, bool) {
	if len(b.rows) == 0 {
		return Packet{}, false
	}
	coeff := bitvec.New(b.k)
	payload := bitvec.New(b.l)
	b.randomInto(coeff, payload, r)
	return Packet{Gen: b.gen, Coeff: coeff, Payload: payload}, true
}

// AirPacket is RandomPacket for the transmission hot path: the same
// draw (identical RNG consumption), but written into a buffer-owned
// scratch packet and returned as a pointer, so a steady-state
// transmission performs zero allocations (pointers box for free).
//
// The returned packet is valid only until this buffer's next
// AirPacket call: receivers must copy what they keep — Buffer.Add
// already does — and any relay layer must clone before holding a
// packet across rounds (mmv.Protocol does).
func (b *Buffer) AirPacket(r *rand.Rand) (*Packet, bool) {
	if len(b.rows) == 0 {
		return nil, false
	}
	if b.air.Coeff.Len() != b.k {
		b.air = Packet{Gen: b.gen, Coeff: bitvec.New(b.k), Payload: bitvec.New(b.l)}
	}
	b.air.Coeff.Zero()
	b.air.Payload.Zero()
	b.randomInto(b.air.Coeff, b.air.Payload, r)
	return &b.air, true
}

// randomInto XORs a uniformly random subset of the stored rows into
// (coeff, payload) — the shared draw of RandomPacket and AirPacket.
func (b *Buffer) randomInto(coeff, payload bitvec.Vec, r *rand.Rand) {
	for _, row := range b.rows {
		if r.Intn(2) == 1 {
			coeff.XorInPlace(row.Coeff)
			payload.XorInPlace(row.Payload)
		}
	}
}

// InfectedBy implements Definition 3.8: the node is infected by μ iff
// it has received (stored) a packet whose coefficient vector is not
// orthogonal to μ. Equivalently, μ is non-orthogonal to the stored
// subspace.
func (b *Buffer) InfectedBy(mu bitvec.Vec) bool {
	for _, row := range b.rows {
		if bitvec.Dot(mu, row.Coeff) {
			return true
		}
	}
	return false
}
