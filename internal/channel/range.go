package channel

import (
	"math"

	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// RangeErasure is the position-aware quasi-unit-disk loss model: a
// link is reliable when the endpoints are within Inner, impossible
// beyond Outer, and erased with a probability that ramps linearly
// across the band in between —
//
//	p(d) = (d − Inner) / (Outer − Inner)   for Inner < d < Outer.
//
// This is the bnet-style physical layer: a hard reliable radius
// surrounded by a probabilistic fringe. Pair it with a graph built at
// the Outer radius (geo.NewDisk(layout, Outer)) so every band link
// exists in the topology and this model decides, per round, whether
// the fringe delivery happens.
//
// The coordinate slices alias the layout that built the graph: a
// mobility stepper that moves nodes between re-layouts shifts these
// distances immediately, while the CSR only catches up at the next
// Retopo. Draws are keyed by (seed, round, link) exactly like
// Erasure, so the model is deterministic, engine-invariant, and safe
// under the dense engine's concurrent DropLink calls — it holds no
// mutable state at all (Reset is inherited from Nop semantics: there
// is nothing to rewind, so none is implemented).
type RangeErasure struct {
	Nop
	// X, Y are the node positions, aliased from the geo layout.
	X, Y []float64
	// Inner is the reliable radius; Outer the maximum range.
	Inner, Outer float64
	drop         rng.Prefix // band draws Mix(seed, 0xd157, round, link)
}

// NewRangeErasure returns a quasi-unit-disk erasure channel over the
// given positions. Requires 0 <= inner < outer.
func NewRangeErasure(x, y []float64, inner, outer float64, seed uint64) *RangeErasure {
	if !(inner >= 0 && outer > inner) {
		panic("channel: NewRangeErasure requires 0 <= inner < outer")
	}
	return &RangeErasure{X: x, Y: y, Inner: inner, Outer: outer, drop: rng.NewPrefix(seed, 0xd157)}
}

// DropLink implements radio.Channel. Squared distances settle the
// common cases (inside the reliable radius, beyond range) without a
// square root; only band links pay for the sqrt that the linear ramp
// needs.
func (c *RangeErasure) DropLink(r int64, from, to radio.NodeID) bool {
	dx := c.X[to] - c.X[from]
	dy := c.Y[to] - c.Y[from]
	d2 := dx*dx + dy*dy
	if d2 <= c.Inner*c.Inner {
		return false
	}
	if d2 >= c.Outer*c.Outer {
		return true
	}
	p := (math.Sqrt(d2) - c.Inner) / (c.Outer - c.Inner)
	return chance(p, c.drop.Mix2(uint64(r), linkKey(from, to)))
}

// LinkOnly implements radio.LinkOnlyChannel: the band loss acts only
// through DropLink.
func (*RangeErasure) LinkOnly() bool { return true }

var _ radio.LinkOnlyChannel = (*RangeErasure)(nil)
