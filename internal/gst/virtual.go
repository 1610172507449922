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
