package graph

import (
	"fmt"
	"math"
	"math/rand"

	"radiocast/internal/rng"
)

// The generators below produce the workload families used throughout
// the experiments:
//
//   - Path / Cycle / Grid: high-diameter sparse topologies where the
//     additive-in-D bound of Theorem 1.1 dominates the multiplicative
//     D·log(n/D) baselines.
//   - Star / Complete: degenerate low-diameter, high-contention
//     topologies exercising the polylog terms and the Decay analysis.
//   - GNP / RandomRegular: low-diameter expanders.
//   - UnitDisk: the geometric model most practical radio deployments
//     resemble (sensor fields).
//   - ClusterChain ("caterpillar of cliques"): the canonical hard case
//     for Decay-style protocols — large diameter AND large degree, so
//     D·log n is maximally worse than D + polylog.
//   - BinaryTree / Hypercube: structured topologies for GST sanity.

// Path returns the path 0-1-2-...-n-1 (diameter n-1).
func Path(n int) *Graph { return FromStream(StreamPath(n)) }

// Cycle returns the n-cycle (diameter floor(n/2)).
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("cycle-%d", n))
	for v := 0; v+1 < n; v++ {
		b.AddEdge(NodeID(v), NodeID(v+1))
	}
	if n > 2 {
		b.AddEdge(NodeID(n-1), 0)
	}
	return b.Build()
}

// Star returns the star with center 0 and n-1 leaves (diameter 2).
func Star(n int) *Graph {
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("star-%d", n))
	for v := 1; v < n; v++ {
		b.AddEdge(0, NodeID(v))
	}
	return b.Build()
}

// Complete returns K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("complete-%d", n))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	return b.Build()
}

// Grid returns the rows x cols 2D grid (diameter rows+cols-2).
func Grid(rows, cols int) *Graph { return FromStream(StreamGrid(rows, cols)) }

// Torus returns the rows x cols 2D torus (wraparound grid).
func Torus(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	b.SetName(fmt.Sprintf("torus-%dx%d", rows, cols))
	id := func(r, c int) NodeID { return NodeID(((r+rows)%rows)*cols + (c+cols)%cols) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id(r, c+1))
			b.AddEdge(id(r, c), id(r+1, c))
		}
	}
	return b.Build()
}

// BinaryTree returns the complete binary tree on n nodes (heap order).
func BinaryTree(n int) *Graph {
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("bintree-%d", n))
	for v := 1; v < n; v++ {
		b.AddEdge(NodeID(v), NodeID((v-1)/2))
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int) *Graph {
	n := 1 << d
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("hypercube-%d", d))
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			b.AddEdge(NodeID(v), NodeID(v^(1<<bit)))
		}
	}
	return b.Build()
}

// GNP returns a connected Erdős–Rényi G(n, p) sample: edges are drawn
// independently with probability p and, if the sample is disconnected,
// each non-root component is stitched to the giant component with one
// random edge (so the workload stays a single broadcast domain while
// remaining statistically close to G(n,p) for p above the connectivity
// threshold).
func GNP(n int, p float64, seed uint64) *Graph {
	r := rng.New(seed, 0x6e70) // "np"
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("gnp-%d-p%.3f", n, p))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	stitchConnected(b, r)
	return b.Build()
}

// RandomRegular returns an (approximately) d-regular random graph via
// the pairing model with retry-free collision dropping: some nodes may
// end with degree slightly below d. Stitched to be connected.
func RandomRegular(n, d int, seed uint64) *Graph {
	r := rng.New(seed, 0x7272) // "rr"
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("regular-%d-d%d", n, d))
	stubs := make([]NodeID, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, NodeID(v))
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		b.AddEdge(stubs[i], stubs[i+1])
	}
	stitchConnected(b, r)
	return b.Build()
}

// UnitDisk places n points uniformly in the unit square and connects
// pairs within Euclidean distance radius — the standard model of a
// wireless sensor field. Stitched to be connected.
func UnitDisk(n int, radius float64, seed uint64) *Graph {
	r := rng.New(seed, 0x7564) // "ud"
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("udg-%d-r%.3f", n, radius))
	// Grid hashing: only compare points in neighboring cells.
	cell := radius
	if cell <= 0 {
		panic("graph: UnitDisk radius must be positive")
	}
	cols := int(1/cell) + 1
	buckets := make(map[int][]int)
	key := func(x, y float64) (int, int) { return int(x / cell), int(y / cell) }
	for i := 0; i < n; i++ {
		cx, cy := key(xs[i], ys[i])
		buckets[cx*cols*4+cy] = append(buckets[cx*cols*4+cy], i)
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		cx, cy := key(xs[i], ys[i])
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[(cx+dx)*cols*4+(cy+dy)] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						b.AddEdge(NodeID(i), NodeID(j))
					}
				}
			}
		}
	}
	stitchConnected(b, r)
	return b.Build()
}

// ClusterChain returns a chain of `chain` cliques of size `clique`,
// where consecutive cliques are joined by a single bridge edge. With
// n = chain*clique nodes it has diameter Θ(chain) and max degree
// Θ(clique): the workload on which D·log n style bounds are maximally
// worse than D + polylog (the headline gap of Theorem 1.1).
func ClusterChain(chain, clique int) *Graph {
	return FromStream(StreamClusterChain(chain, clique))
}

// Lollipop returns a clique of size `clique` attached to a path of
// length `tail` — the classical worst case separating eccentricities.
func Lollipop(clique, tail int) *Graph {
	n := clique + tail
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("lollipop-%d+%d", clique, tail))
	for u := 0; u < clique; u++ {
		for v := u + 1; v < clique; v++ {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	for v := clique - 1; v+1 < n; v++ {
		b.AddEdge(NodeID(v), NodeID(v+1))
	}
	return b.Build()
}

// Caterpillar returns a path of length spineLen where each spine node
// has legs pendant leaves: a tree with both large diameter and
// nontrivial per-layer contention.
func Caterpillar(spineLen, legs int) *Graph {
	n := spineLen * (1 + legs)
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("caterpillar-%dx%d", spineLen, legs))
	for v := 0; v+1 < spineLen; v++ {
		b.AddEdge(NodeID(v), NodeID(v+1))
	}
	next := spineLen
	for v := 0; v < spineLen; v++ {
		for l := 0; l < legs; l++ {
			b.AddEdge(NodeID(v), NodeID(next))
			next++
		}
	}
	return b.Build()
}

// stitchConnected adds random edges from each secondary component to
// the component of node 0 until the builder's graph is connected.
func stitchConnected(b *Builder, r *rand.Rand) {
	if b.n == 0 {
		return
	}
	for {
		g := b.Build()
		res := BFS(g, 0)
		if res.Reached == g.n {
			return
		}
		// Pick a random reached node and a random unreached node.
		var reached, unreached []NodeID
		for v := 0; v < g.n; v++ {
			if res.Dist[v] >= 0 {
				reached = append(reached, NodeID(v))
			} else {
				unreached = append(unreached, NodeID(v))
			}
		}
		b.AddEdge(reached[r.Intn(len(reached))], unreached[r.Intn(len(unreached))])
	}
}

// ConnectivityRadius returns a radius at which a UnitDisk graph on n
// nodes is connected w.h.p.: sqrt(2 ln n / n), with a safety factor.
func ConnectivityRadius(n int) float64 {
	if n < 2 {
		return 1
	}
	return 1.2 * math.Sqrt(2*math.Log(float64(n))/float64(n))
}
