package gst

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
	transmitsFast := Flatten(t).SameRankChild
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
