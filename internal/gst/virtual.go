package gst

import "radiocast/internal/graph"

// Fast stretches and the virtual graph G' (Section 3.2).
//
// A fast stretch is a maximal root-ward path in T on which every node
// has the same rank. Because a node of rank r has at most one child of
// rank r (two would force rank r+1), stretches are simple paths. The
// virtual graph G' adds, for every stretch start u, a directed fast
// edge from u to every node of the stretch; the virtual distance d(v)
// is the directed distance from the roots in G' (graph edges usable in
// both directions). Lemma 3.4: d(v) ≤ 2⌈log2 n⌉.

// StretchInfo describes a node's position within its fast stretch.
type StretchInfo struct {
	// Start is the first (shallowest) node of the stretch containing
	// the node; a node whose parent has a different rank (or a root)
	// starts its own stretch.
	Start NodeID
	// Pos is the node's distance from Start along the stretch.
	Pos int32
}

// Stretches computes per-node stretch membership for the forest.
func Stretches(t *Tree) []StretchInfo {
	n := t.G.N()
	info := make([]StretchInfo, n)
	for v := range info {
		info[v] = StretchInfo{Start: -1}
	}
	// Process by increasing level so parents are resolved first.
	_, order := levelOrder(t.Level)
	for _, v := range order {
		p := t.Parent[v]
		if p < 0 || t.Rank[p] != t.Rank[v] {
			info[v] = StretchInfo{Start: v, Pos: 0}
			continue
		}
		info[v] = StretchInfo{Start: info[p].Start, Pos: info[p].Pos + 1}
	}
	return info
}

// IsStretchStart reports whether v begins a fast stretch (is a root or
// has a parent of different rank).
func IsStretchStart(t *Tree, v NodeID) bool {
	p := t.Parent[v]
	return t.InTree(v) && (p < 0 || t.Rank[p] != t.Rank[v])
}

// SameRankChild returns v's unique child of equal rank, or -1. The
// ranking rule guarantees uniqueness.
func SameRankChild(t *Tree, children [][]NodeID, v NodeID) NodeID {
	for _, c := range children[v] {
		if t.Rank[c] == t.Rank[v] {
			return c
		}
	}
	return -1
}

// VirtualDistances computes d(v) for every forest member: BFS from the
// roots over G' = (member-induced G, both directions) ∪ (fast edges
// from each stretch start to every node of its stretch). Non-members
// get -1.
func VirtualDistances(t *Tree) []int32 {
	n := t.G.N()
	info := Stretches(t)
	// Fast edge targets per stretch start.
	fast := make(map[NodeID][]NodeID)
	for v := 0; v < n; v++ {
		if !t.InTree(NodeID(v)) {
			continue
		}
		s := info[v].Start
		if s != NodeID(v) {
			fast[s] = append(fast[s], NodeID(v))
		}
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]NodeID, 0, n)
	for _, r := range t.Roots {
		if dist[r] < 0 {
			dist[r] = 0
			queue = append(queue, r)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		push := func(u NodeID) {
			if t.InTree(u) && dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
		for _, u := range t.G.Neighbors(v) {
			push(u)
		}
		for _, u := range fast[v] {
			push(u)
		}
	}
	return dist
}

// Heights computes the potential h(v) = d(v)·⌈log2 n⌉ + level(v) used
// by the backwards analysis (proof of Lemma 3.3) and by the strip
// decomposition of Section 3.4. logN is ⌈log2 n⌉.
func Heights(t *Tree, vdist []int32, logN int32) []int32 {
	h := make([]int32, t.G.N())
	for v := range h {
		if !t.InTree(NodeID(v)) || vdist[v] < 0 {
			h[v] = -1
			continue
		}
		h[v] = vdist[v]*logN + t.Level[v]
	}
	return h
}

// FastEdgesCollisionFree verifies the implementation invariant behind
// Lemma 3.5 for a given tree: for every node u with a same-rank parent
// (a fast-wave receiver), u has exactly one neighbor w at level-1 with
// rank(w) = rank(u) that has a same-rank child — its parent. Returns
// the number of (receiver, interferer) violations (0 for a valid GST
// with the fast-slot rule of DESIGN.md).
func FastEdgesCollisionFree(t *Tree) int {
	children := t.Children()
	transmitsFast := make([]bool, t.G.N()) // has a same-rank child
	for v := 0; v < t.G.N(); v++ {
		if t.InTree(NodeID(v)) && SameRankChild(t, children, NodeID(v)) >= 0 {
			transmitsFast[v] = true
		}
	}
	violations := 0
	for u := 0; u < t.G.N(); u++ {
		p := t.Parent[u]
		if p < 0 || t.Rank[u] != t.Rank[p] {
			continue // not a fast-wave receiver
		}
		for _, w := range t.G.Neighbors(NodeID(u)) {
			if w == p || !t.InTree(w) {
				continue
			}
			if t.Level[w] == t.Level[u]-1 && t.Rank[w] == t.Rank[u] && transmitsFast[w] {
				violations++
			}
		}
	}
	return violations
}

// Ring extracts the subgraph induced by the nodes whose global BFS
// layer lies in [lo, hi), re-indexed as a standalone graph, together
// with the mapping back to global ids and the list of local roots
// (nodes at layer lo). Used by the ring decomposition of Theorems 1.1
// and 1.3.
func Ring(g *graph.Graph, layer []int32, lo, hi int32) (sub *graph.Graph, local2global []NodeID, roots []NodeID) {
	global2local := make(map[NodeID]NodeID)
	for v := 0; v < g.N(); v++ {
		if layer[v] >= lo && layer[v] < hi {
			global2local[NodeID(v)] = NodeID(len(local2global))
			local2global = append(local2global, NodeID(v))
		}
	}
	b := graph.NewBuilder(len(local2global))
	for _, gv := range local2global {
		lv := global2local[gv]
		for _, gu := range g.Neighbors(gv) {
			if lu, ok := global2local[gu]; ok {
				b.AddEdge(lv, lu)
			}
		}
		if layer[gv] == lo {
			roots = append(roots, lv)
		}
	}
	return b.Build(), local2global, roots
}
