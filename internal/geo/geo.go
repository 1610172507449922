// Package geo grounds workloads in geometry: deterministic seeded
// point layouts in the unit square, a grid-bucketed (quasi-)unit-disk
// graph builder that streams straight into graph.FromStream, and a
// random-waypoint mobility stepper that re-derives the layout over
// time. The paper's model targets wireless devices whose connectivity
// comes from positions and radio range, not from an abstract edge
// list; this package is the bridge between that physical picture and
// the engines' CSR topology.
//
// Everything is deterministic in (parameters, seed): layouts draw from
// a keyed xoshiro stream, the disk builder emits an identical edge
// sequence on every pass (the graph.EdgeStream contract), and the
// waypoint stepper's target draws ride one sequential stream, so a
// mobile run is an exact function of its seed like every other run in
// this repository.
package geo

import (
	"fmt"
	"math"

	"radiocast/internal/rng"
)

// Layout is a set of 2-D node positions in the unit square [0,1)^2.
// The coordinate slices are exposed so position-aware consumers (the
// range-erasure channel, the waypoint stepper, position-true
// rendering) can alias them: mutating a layout in place flows through
// to every consumer holding the slices.
type Layout struct {
	X, Y []float64
	name string
}

// N returns the number of points.
func (l *Layout) N() int { return len(l.X) }

// Name returns the layout's workload name.
func (l *Layout) Name() string { return l.name }

// uniform01 draws the next float64 in [0,1) from src.
func uniform01(src *rng.Source) float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Uniform returns n points drawn i.i.d. uniformly from the unit
// square — the classical random geometric graph layout.
func Uniform(n int, seed uint64) *Layout {
	l := &Layout{
		X:    make([]float64, n),
		Y:    make([]float64, n),
		name: fmt.Sprintf("uniform(n=%d,s=%d)", n, seed),
	}
	src := rng.NewSource(rng.Mix(seed, 0x67e0)) // "geo"
	for i := 0; i < n; i++ {
		l.X[i] = uniform01(src)
		l.Y[i] = uniform01(src)
	}
	return l
}

// Clustered returns n points grouped around `clusters` uniformly
// placed centers: node i belongs to cluster i mod clusters (so cluster
// sizes stay balanced at any n) and is offset uniformly within a
// spread x spread box around its center, clamped to the unit square.
// With spread well below the typical center separation the disk graph
// on a clustered layout decomposes into per-cluster components — the
// churn regime E23 starts from.
func Clustered(n, clusters int, spread float64, seed uint64) *Layout {
	if clusters < 1 {
		clusters = 1
	}
	l := &Layout{
		X:    make([]float64, n),
		Y:    make([]float64, n),
		name: fmt.Sprintf("clustered(n=%d,c=%d,s=%d)", n, clusters, seed),
	}
	src := rng.NewSource(rng.Mix(seed, 0x67e1))
	cx := make([]float64, clusters)
	cy := make([]float64, clusters)
	for c := 0; c < clusters; c++ {
		cx[c] = uniform01(src)
		cy[c] = uniform01(src)
	}
	for i := 0; i < n; i++ {
		c := i % clusters
		l.X[i] = clamp01(cx[c] + (uniform01(src)-0.5)*spread)
		l.Y[i] = clamp01(cy[c] + (uniform01(src)-0.5)*spread)
	}
	return l
}

// clamp01 clamps v into [0, 1).
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}

// ConnectivityRadius is the classical random-geometric-graph
// connectivity threshold sqrt(2 ln n / n) with a 1.2x safety factor —
// the radius at which a Uniform layout's unit-disk graph is connected
// w.h.p.
func ConnectivityRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	return 1.2 * math.Sqrt(2*math.Log(float64(n))/float64(n))
}
