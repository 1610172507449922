package geo

import (
	"fmt"
	"math"

	"radiocast/internal/graph"
	"radiocast/internal/rng"
)

// Disk is a graph.EdgeStream for the unit-disk graph of a layout:
// nodes u and v are adjacent iff their Euclidean distance is at most
// Radius. The builder buckets points into a grid of cells no smaller
// than the radius, so each node compares only against the 3x3 cell
// neighborhood around it — near-linear work at the connectivity
// radius instead of the O(n²) pair scan, which is what makes the
// n=10^6 sweep in E22 feasible.
//
// The stream emits each undirected edge exactly once (u < v), in a
// fixed order derived from the cell CSR precomputed at construction,
// so both of graph.FromStream's passes see the identical sequence.
// Building a graph at the QUDG outer radius and layering
// channel.RangeErasure over the band between inner and outer radius
// yields the quasi-unit-disk model.
type Disk struct {
	l      *Layout
	radius float64

	// Cell bucketing: cellStart/cellNodes is a CSR over grid cells
	// (row-major), cellNodes ascending within each cell.
	cols      int
	cellStart []int32
	cellNodes []int32
}

// NewDisk precomputes the cell bucketing for the unit-disk graph of l
// at the given radius. The layout is captured by reference but the
// bucketing is a construction-time snapshot: after mutating positions
// (e.g. a Waypoint step), build a fresh Disk.
func NewDisk(l *Layout, radius float64) *Disk {
	if radius <= 0 {
		panic("geo: NewDisk with non-positive radius")
	}
	n := l.N()
	// Cell side must be >= radius so the 3x3 neighborhood covers the
	// disk; capping cols at ~sqrt(n) bounds the grid at O(n) cells
	// even for tiny radii.
	cols := 1
	if radius < 1 {
		cols = int(1 / radius)
	}
	if cap := int(math.Ceil(math.Sqrt(float64(n)))) + 1; cols > cap {
		cols = cap
	}
	if cols < 1 {
		cols = 1
	}
	d := &Disk{
		l:         l,
		radius:    radius,
		cols:      cols,
		cellStart: make([]int32, cols*cols+1),
		cellNodes: make([]int32, n),
	}
	// Two-pass counting sort of nodes into cells; node order within a
	// cell is ascending because the fill pass walks nodes in order.
	for i := 0; i < n; i++ {
		d.cellStart[d.cell(i)+1]++
	}
	for c := 0; c < cols*cols; c++ {
		d.cellStart[c+1] += d.cellStart[c]
	}
	fill := make([]int32, cols*cols)
	for i := 0; i < n; i++ {
		c := d.cell(i)
		d.cellNodes[d.cellStart[c]+fill[c]] = int32(i)
		fill[c]++
	}
	return d
}

// cell maps node i's position to its row-major grid cell index.
func (d *Disk) cell(i int) int {
	cx := int(d.l.X[i] * float64(d.cols))
	cy := int(d.l.Y[i] * float64(d.cols))
	if cx >= d.cols {
		cx = d.cols - 1
	}
	if cy >= d.cols {
		cy = d.cols - 1
	}
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	return cy*d.cols + cx
}

// N returns the number of nodes.
func (d *Disk) N() int { return d.l.N() }

// Name identifies the stream for graph naming.
func (d *Disk) Name() string {
	return fmt.Sprintf("udg(%s,r=%.4g)", d.l.name, d.radius)
}

// Edges emits each unit-disk edge once (u < v), u ascending, so
// FromStream assembles the graph from one run. The order is a pure
// function of the precomputed bucketing, as the EdgeStream contract
// requires.
func (d *Disk) Edges(emit func(u, v graph.NodeID)) {
	n := d.l.N()
	r2 := d.radius * d.radius
	for u := 0; u < n; u++ {
		ux, uy := d.l.X[u], d.l.Y[u]
		cx := int(ux * float64(d.cols))
		cy := int(uy * float64(d.cols))
		if cx >= d.cols {
			cx = d.cols - 1
		}
		if cy >= d.cols {
			cy = d.cols - 1
		}
		for dy := -1; dy <= 1; dy++ {
			ny := cy + dy
			if ny < 0 || ny >= d.cols {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				nx := cx + dx
				if nx < 0 || nx >= d.cols {
					continue
				}
				c := ny*d.cols + nx
				for _, vv := range d.cellNodes[d.cellStart[c]:d.cellStart[c+1]] {
					v := int(vv)
					if v <= u {
						continue
					}
					ddx := d.l.X[v] - ux
					ddy := d.l.Y[v] - uy
					if ddx*ddx+ddy*ddy <= r2 {
						emit(graph.NodeID(u), graph.NodeID(v))
					}
				}
			}
		}
	}
}

// Build materialises the unit-disk graph through graph.FromStream.
func (d *Disk) Build() *graph.Graph { return graph.FromStream(d) }

// UnitDisk places n points uniformly in the unit square, drawing each
// point's X and then its Y from one seeded stream, and connects the
// pairs within Euclidean distance radius — the standard model of a
// wireless sensor field. graph.StitchConnected then joins the
// components with further draws from the same stream.
func UnitDisk(n int, radius float64, seed uint64) *graph.Graph {
	r := rng.New(seed, 0x7564) // "ud"
	l := &Layout{X: make([]float64, n), Y: make([]float64, n)}
	for i := range l.X {
		l.X[i], l.Y[i] = r.Float64(), r.Float64()
	}
	d := namedDisk{NewDisk(l, radius), fmt.Sprintf("udg-%d-r%.3f", n, radius)}
	return graph.StitchConnected(graph.FromStream(d), r)
}

// namedDisk is a Disk under another workload name.
type namedDisk struct {
	*Disk
	name string
}

func (d namedDisk) Name() string { return d.name }
