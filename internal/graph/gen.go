package graph

import (
	"fmt"
	"math/bits"
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
//   - geo.UnitDisk, stitched by StitchConnected like GNP: the geometric
//     model most practical radio deployments resemble (sensor fields).
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
	return StitchConnected(b.Build(), r)
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
	return StitchConnected(b.Build(), r)
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

// StitchConnected returns g joined into one component: while some node
// is not in node 0's component, it draws a random node of that
// component, then a random node outside it (each by its index in the
// ascending list of such nodes), and joins them, which merges the
// second node's component. The edges are spliced in at the end; a
// connected g is returned as it is. Each draw selects from the reached
// set by popcount, O(n/64) per stitch edge.
func StitchConnected(g *Graph, r *rand.Rand) *Graph {
	if g.n == 0 {
		return g
	}
	seen, count, _ := sweep(g, 0)
	if count == g.n {
		return g
	}
	var comp, us, vs []NodeID
	for count < g.n {
		u := nthBit(seen, r.Intn(count), false)
		v := nthBit(seen, r.Intn(g.n-count), true)
		us, vs = append(us, u), append(vs, v)
		comp, _ = reach(g, seen, comp[:0], v)
		count += len(comp)
	}
	return g.splice(us, vs)
}

// nthBit returns the position of the i-th (0-based, ascending) set bit
// of words, or of its i-th unset bit when unset is true.
func nthBit(words []uint64, i int, unset bool) NodeID {
	for w, x := range words {
		if unset {
			x = ^x
		}
		if c := bits.OnesCount64(x); i >= c {
			i -= c
			continue
		}
		for ; i > 0; i-- {
			x &= x - 1
		}
		return NodeID(w<<6 + bits.TrailingZeros64(x))
	}
	panic("graph: bit index out of range")
}
