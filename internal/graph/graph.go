// Package graph provides the undirected-graph substrate for the radio
// network simulator: a compact adjacency representation, traversals
// (BFS layerings, diameter), and the workload generators used by the
// paper's experiments (paths, grids, random graphs, cluster chains,
// ...; the unit-disk graphs are in internal/geo).
package graph

import (
	"fmt"
	"math/bits"
	"sort"
)

// NodeID identifies a node; nodes are always 0..N-1.
type NodeID = int32

// Graph is a simple undirected graph with nodes 0..N-1 stored in CSR
// (compressed sparse row) form for cache-friendly neighbor iteration.
// Graphs are immutable after construction; FromStream builds every
// one, from a generator's stream, a Builder or a geo.Disk.
type Graph struct {
	n       int
	offsets []int32  // len n+1
	edges   []NodeID // concatenated sorted adjacency lists
	name    string
	// ecc0 is 1 + the eccentricity of node 0 when the graph is
	// connected and its builder swept it from node 0 (BuildConnected),
	// and 0 when that is not known.
	ecc0 int
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) / 2 }

// Name returns the generator-assigned workload name (may be empty).
func (g *Graph) Name() string { return g.name }

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// CSR exposes the raw compressed-sparse-row arrays: offsets has length
// N()+1 and edges[offsets[v]:offsets[v+1]] is the sorted adjacency
// list of v. Both slices alias internal storage and must not be
// modified; they let hot loops (the simulator's delivery pass) iterate
// adjacency without per-node accessor calls.
func (g *Graph) CSR() (offsets []int32, edges []NodeID) {
	return g.offsets, g.edges
}

// HasEdge reports whether {u, v} is an edge, in O(log deg(u)).
func (g *Graph) HasEdge(u, v NodeID) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// MaxDegree returns the maximum degree Δ.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// Builder records edges and produces an immutable Graph through
// FromStream, so duplicate edges are dropped and rows come out sorted.
// It is the EdgeStream of the edges added so far.
type Builder struct {
	nodes  int
	label  string
	us, vs []NodeID
}

// NewBuilder returns a builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{nodes: n}
}

// SetName records the workload name carried by the built graph.
func (b *Builder) SetName(name string) { b.label = name }

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
func (b *Builder) AddEdge(u, v NodeID) {
	if u == v {
		return
	}
	if int(u) >= b.nodes || int(v) >= b.nodes || u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.nodes))
	}
	b.us, b.vs = append(b.us, u), append(b.vs, v)
}

// N returns the node count.
func (b *Builder) N() int { return b.nodes }

// Name returns the name set by SetName.
func (b *Builder) Name() string { return b.label }

// Edges emits the recorded edges in the order they were added.
func (b *Builder) Edges(emit func(u, v NodeID)) {
	for i, u := range b.us {
		emit(u, b.vs[i])
	}
}

// Build freezes the recorded edges into an immutable Graph.
func (b *Builder) Build() *Graph { return FromStream(b) }

// BFSResult holds a breadth-first layering from a set of sources.
type BFSResult struct {
	// Dist[v] is the hop distance from the nearest source, or -1 if
	// unreachable.
	Dist []int32
	// Parent[v] is a BFS-tree parent of v (-1 for sources/unreachable).
	Parent []NodeID
	// MaxDist is the largest finite distance (the eccentricity of the
	// source set within its reachable component).
	MaxDist int32
	// Reached is the number of reachable nodes (including sources).
	Reached int
}

// BFS runs a breadth-first search from one or more sources.
func BFS(g *Graph, sources ...NodeID) *BFSResult {
	if len(sources) == 0 {
		panic("graph: BFS needs at least one source")
	}
	res := &BFSResult{
		Dist:   make([]int32, g.n),
		Parent: make([]NodeID, g.n),
	}
	for i := range res.Dist {
		res.Dist[i] = -1
		res.Parent[i] = -1
	}
	queue := make([]NodeID, 0, g.n)
	for _, s := range sources {
		if res.Dist[s] == 0 && len(queue) > 0 {
			continue // duplicate source
		}
		res.Dist[s] = 0
		queue = append(queue, s)
	}
	res.Reached = len(queue)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := res.Dist[v]
		for _, u := range g.Neighbors(v) {
			if res.Dist[u] >= 0 {
				continue
			}
			res.Dist[u] = dv + 1
			res.Parent[u] = v
			res.Reached++
			if dv+1 > res.MaxDist {
				res.MaxDist = dv + 1
			}
			queue = append(queue, u)
		}
	}
	return res
}

// IsConnected reports whether g is connected (true for the empty and
// single-node graph).
func IsConnected(g *Graph) bool {
	if g.n <= 1 || g.ecc0 > 0 {
		return true
	}
	_, count, _ := sweep(g, 0)
	return count == g.n
}

// Eccentricity returns the maximum distance from v to any node.
// Panics if the graph is disconnected from v.
func Eccentricity(g *Graph, v NodeID) int {
	if v == 0 && g.ecc0 > 0 {
		return g.ecc0 - 1
	}
	_, count, ecc := sweep(g, v)
	if count != g.n {
		panic("graph: Eccentricity on disconnected graph")
	}
	return ecc
}

// sweep is the breadth-first search for callers that need no distances:
// it returns the one-bit-per-node set of the nodes reached from src,
// their count, and src's eccentricity within them. The set is raw words
// rather than a bitvec.Vec, whose signed-index Get and Set made this
// loop about a third slower.
//
// The search is direction-optimizing (Beamer, Asanović and Patterson,
// SC'12). A top-down step scans the frontier's rows for unvisited
// nodes. A bottom-up step scans the rows of the unvisited nodes and
// stops at the first visited neighbour: on a large frontier most
// unvisited nodes find one early, so it reads a fraction of the edges
// a top-down step would. Every visited neighbour of a node unvisited
// before a step is on the frontier (one from an earlier level would
// have found it already), so "visited" stands in for "on the frontier"
// as long as the step's own finds are marked only when it ends.
// sweepBottomUp picks the direction of each step. Each level is
// appended to one n-entry queue, whichever way it was found.
func sweep(g *Graph, src NodeID) (seen []uint64, count, depth int) {
	seen = make([]uint64, (g.n+63)/64)
	queue := make([]NodeID, 1, g.n)
	queue[0] = src
	seen[src>>6] |= 1 << (src & 63)
	off := g.offsets
	frontierEdges := int64(off[src+1] - off[src])
	unexplored := int64(len(g.edges)) - frontierEdges // the unvisited nodes' row lengths
	up, prev := false, 0
	for head := 0; head < len(queue); {
		frontier := queue[head:]
		head = len(queue)
		up = sweepBottomUp(up, frontierEdges, unexplored, len(frontier), prev, g.n)
		prev, frontierEdges = len(frontier), 0
		if up {
			last := len(seen) - 1
			for i, w := range seen {
				w = ^w
				if i == last && g.n&63 != 0 {
					w &= 1<<(g.n&63) - 1
				}
				for ; w != 0; w &= w - 1 {
					v := i<<6 | bits.TrailingZeros64(w)
					for _, u := range g.edges[off[v]:off[v+1]] {
						if seen[u>>6]&(1<<(u&63)) != 0 {
							queue = append(queue, NodeID(v))
							frontierEdges += int64(off[v+1] - off[v])
							break
						}
					}
				}
			}
			for _, v := range queue[head:] {
				seen[v>>6] |= 1 << (v & 63)
			}
		} else {
			for _, v := range frontier {
				for _, u := range g.edges[off[v]:off[v+1]] {
					if seen[u>>6]&(1<<(u&63)) == 0 {
						seen[u>>6] |= 1 << (u & 63)
						queue = append(queue, u)
						frontierEdges += int64(off[u+1] - off[u])
					}
				}
			}
		}
		unexplored -= frontierEdges
		if len(queue) > head {
			depth++
		}
	}
	return seen, len(queue), depth
}

// The direction-optimizing constants of Beamer et al.: a sweep turns
// bottom-up once the frontier's rows hold more than 1/sweepAlpha of the
// unvisited nodes' row entries, and top-down again once the frontier
// shrinks below n/sweepBeta nodes.
const (
	sweepAlpha = 14
	sweepBeta  = 24
)

// sweepBottomUp reports whether sweep expands its frontier bottom-up,
// given the direction of the previous step (up), the frontier's row
// entries and node count, the unvisited nodes' row entries, the
// previous frontier's node count and the node count n.
func sweepBottomUp(up bool, frontierEdges, unexplored int64, frontier, prev, n int) bool {
	if up {
		return frontier >= prev || frontier > n/sweepBeta
	}
	return frontierEdges > unexplored/sweepAlpha
}

// reach searches breadth-first from src over the nodes not yet set in
// seen, setting each one it reaches. It returns queue with those nodes
// appended in visiting order, and the depth of the search.
func reach(g *Graph, seen []uint64, queue []NodeID, src NodeID) ([]NodeID, int) {
	seen[src>>6] |= 1 << (src & 63)
	queue = append(queue, src)
	depth := 0
	for head, end := len(queue)-1, len(queue); ; depth++ {
		for ; head < end; head++ {
			for _, u := range g.Neighbors(queue[head]) {
				if seen[u>>6]&(1<<(u&63)) == 0 {
					seen[u>>6] |= 1 << (u & 63)
					queue = append(queue, u)
				}
			}
		}
		if end == len(queue) {
			return queue, depth
		}
		end = len(queue)
	}
}

// Diameter computes the exact diameter with n BFS traversals. Intended
// for test-scale graphs.
func Diameter(g *Graph) int {
	if g.n == 0 {
		return 0
	}
	max := 0
	for v := 0; v < g.n; v++ {
		if e := Eccentricity(g, NodeID(v)); e > max {
			max = e
		}
	}
	return max
}

// Validate checks internal consistency (sorted unique adjacency,
// symmetry) and returns a descriptive error on violation. Used by
// tests and the fuzzing harness.
func (g *Graph) Validate() error {
	for v := 0; v < g.n; v++ {
		adj := g.Neighbors(NodeID(v))
		for i, u := range adj {
			if i > 0 && adj[i-1] >= u {
				return fmt.Errorf("node %d: adjacency not sorted/unique at %d", v, i)
			}
			if u == NodeID(v) {
				return fmt.Errorf("node %d: self-loop", v)
			}
			if !g.HasEdge(u, NodeID(v)) {
				return fmt.Errorf("edge (%d,%d) not symmetric", v, u)
			}
		}
	}
	return nil
}
