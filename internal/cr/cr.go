// Package cr provides the prior-art baseline the paper compares
// against: the O(D log(n/D) + log^2 n) single-message broadcast of
// Czumaj–Rytter [6] and Kowalski–Pelc [16] for unknown topology
// without collision detection.
//
// Substitution note (DESIGN.md): the published algorithms are built
// from intricate selector sequences; what the paper uses is only their
// round complexity. We implement the standard simplification that
// achieves the same shape on the evaluated workloads: Decay on another
// phase schedule (FastDecay), whose phases interleave short sweeps of
// length ⌈log(n/D)⌉+2 (the expected per-layer contention when n nodes
// spread over D layers is n/D) with occasional full-length sweeps of
// ⌈log n⌉ rounds (so dense neighborhoods still resolve, preserving the
// additive log^2 n term). One in every SparseEvery phases is
// full-length. The protocol itself is decay.Broadcast (per-node engine)
// and decay.Dense (SoA engine) on that schedule.
package cr

import (
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/rng"
	"radiocast/internal/sched"
)

// NewParams derives the FastDecay schedule from n and a diameter bound
// d.
func NewParams(n, d int) decay.Schedule {
	if d < 1 {
		d = 1
	}
	ratio := n / d
	if ratio < 2 {
		ratio = 2
	}
	return decay.NewSchedule(sched.CeilLog2(ratio)+2, sched.LogN(n), 4)
}

// DenseKey derives the keyed-draw seed of a dense CR run; exported so
// byte-identity twins (sparse protocols replaying the same coins) can
// share it.
func DenseKey(seed uint64) uint64 { return rng.Mix(seed, 0xc4) }

// NewDense creates the SoA CR broadcast on g from source under
// schedule p, with transmit coins keyed on DenseKey(seed).
func NewDense(g *graph.Graph, p decay.Schedule, seed uint64, source graph.NodeID) *decay.Dense {
	return decay.NewDenseSchedule(g, p, DenseKey(seed), source)
}
