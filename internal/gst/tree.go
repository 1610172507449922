// Package gst implements Gathering Spanning Trees (Section 2.1,
// following Gasieniec, Peleg and Xin [7]):
//
// A ranked BFS tree assigns each node a rank by the inductive rule:
// leaves get rank 1; an internal node whose children have maximum rank
// r gets rank r if exactly one child attains r, and rank r+1 if two or
// more do. The largest rank is at most ⌈log2 n⌉.
//
// A ranked BFS tree T is a GST iff it satisfies collision-freeness:
// whenever u1 ≠ u2 at level l both have rank r and their parents
// v1 ≠ v2 at level l−1 also both have rank r, the graph has no edge
// v1–u2 or v2–u1 — i.e. the set of same-rank parent-child pairs at
// each level boundary is an induced matching.
//
// The package provides the tree representation, rank computation,
// validation of all GST invariants, a centralized construction (the
// known-topology setting of Theorem 1.2), fast stretches, and the
// virtual graph G' with its virtual distances (Section 3.2).
//
// Trees may have multiple roots (a forest): Theorem 1.1/1.3 build one
// GST per ring, rooted at the ring's entire inner boundary.
package gst

import (
	"fmt"
	"slices"

	"radiocast/internal/graph"
	"radiocast/internal/sched"
)

// NodeID aliases graph.NodeID.
type NodeID = graph.NodeID

// Tree is a ranked BFS forest over a graph. All slices are indexed by
// node id; nodes outside the forest (unreachable from the roots) have
// Level -1.
type Tree struct {
	G      *graph.Graph
	Roots  []NodeID
	Parent []NodeID // -1 for roots and non-members
	Level  []int32  // BFS level; roots are 0; -1 for non-members
	Rank   []int32  // computed rank; 0 for non-members
}

// NewTree allocates an empty tree skeleton for g.
func NewTree(g *graph.Graph, roots []NodeID) *Tree {
	n := g.N()
	t := &Tree{
		G:      g,
		Roots:  append([]NodeID(nil), roots...),
		Parent: make([]NodeID, n),
		Level:  make([]int32, n),
		Rank:   make([]int32, n),
	}
	for v := range t.Parent {
		t.Parent[v] = -1
		t.Level[v] = -1
	}
	return t
}

// InTree reports whether v belongs to the forest.
func (t *Tree) InTree(v NodeID) bool { return t.Level[v] >= 0 }

// Children returns the children lists of every node.
func (t *Tree) Children() [][]NodeID {
	ch := make([][]NodeID, t.G.N())
	for v := 0; v < t.G.N(); v++ {
		if p := t.Parent[v]; p >= 0 {
			ch[p] = append(ch[p], NodeID(v))
		}
	}
	return ch
}

// MaxLevel returns the deepest level in the forest.
func (t *Tree) MaxLevel() int32 {
	var max int32
	for _, l := range t.Level {
		if l > max {
			max = l
		}
	}
	return max
}

// MaxRank returns the largest rank in the forest.
func (t *Tree) MaxRank() int32 {
	var max int32
	for _, r := range t.Rank {
		if r > max {
			max = r
		}
	}
	return max
}

// ComputeRanks fills Rank from Parent using the inductive ranking rule
// of Section 2.1. It visits the members deepest level first, so each
// child's rank is final when it is folded into its parent (which sits
// one level up).
func (t *Tree) ComputeRanks() {
	_, order := levelOrder(t.Level)
	agg := newChildRanks(t.G.N())
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		t.Rank[v] = agg.rank(v)
		if p := t.Parent[v]; p >= 0 {
			agg.add(p, t.Rank[v])
		}
	}
}

// levelOrder sorts the forest members by level with one counting sort:
// level l occupies order[offsets[l]:offsets[l+1]], ascending id within
// a level. Non-members (level -1) are left out.
func levelOrder(level []int32) (offsets []int32, order []NodeID) {
	var maxLevel int32
	for _, l := range level {
		maxLevel = max(maxLevel, l)
	}
	offsets = make([]int32, maxLevel+2)
	for _, l := range level {
		if l >= 0 {
			offsets[l+1]++
		}
	}
	for l := 1; l < len(offsets); l++ {
		offsets[l] += offsets[l-1]
	}
	next := slices.Clone(offsets[:maxLevel+1])
	order = make([]NodeID, offsets[maxLevel+1])
	for v, l := range level {
		if l >= 0 {
			order[next[l]] = NodeID(v)
			next[l]++
		}
	}
	return offsets, order
}

// childRanks is the per-parent aggregate the ranking rule reads: the
// largest rank among the children folded in so far, and how many of
// them attain it.
type childRanks struct{ top, ties []int32 }

func newChildRanks(n int) childRanks {
	return childRanks{top: make([]int32, n), ties: make([]int32, n)}
}

// add folds a child of rank r into parent p.
func (a childRanks) add(p NodeID, r int32) {
	switch {
	case r > a.top[p]:
		a.top[p], a.ties[p] = r, 1
	case r == a.top[p]:
		a.ties[p]++
	}
}

// rank applies the ranking rule to v's children: 1 for a leaf, the top
// child rank when one child attains it, one more when several do.
func (a childRanks) rank(v NodeID) int32 {
	switch {
	case a.top[v] == 0:
		return 1
	case a.ties[v] >= 2:
		return a.top[v] + 1
	}
	return a.top[v]
}

// rankFromChildren applies the ranking rule given children's ranks.
func rankFromChildren(rank []int32, children []NodeID) int32 {
	if len(children) == 0 {
		return 1
	}
	var best int32
	count := 0
	for _, c := range children {
		switch {
		case rank[c] > best:
			best = rank[c]
			count = 1
		case rank[c] == best:
			count++
		}
	}
	if count >= 2 {
		return best + 1
	}
	return best
}

// Validate checks every GST invariant and returns a descriptive error
// for the first violation:
//
//  1. structure: parents are graph neighbors one level up; roots have
//     level 0; every member except roots has a parent;
//  2. BFS property: Level equals the true BFS distance from the roots
//     (restricted to the member subgraph);
//  3. ranking rule: Rank follows the inductive rule;
//  4. rank bound: MaxRank ≤ ⌈log2 n⌉ (+1 slack for n<4 degeneracy);
//  5. collision-freeness: the same-rank parent-child pairs at each
//     level boundary form an induced matching.
func (t *Tree) Validate() error {
	if err := t.validateStructure(); err != nil {
		return err
	}
	if err := t.validateBFS(); err != nil {
		return err
	}
	if err := t.validateRanks(); err != nil {
		return err
	}
	return t.ValidateCollisionFreeness()
}

func (t *Tree) validateStructure() error {
	isRoot := make(map[NodeID]bool, len(t.Roots))
	for _, r := range t.Roots {
		isRoot[r] = true
		if t.Level[r] != 0 {
			return fmt.Errorf("gst: root %d has level %d", r, t.Level[r])
		}
		if t.Parent[r] != -1 {
			return fmt.Errorf("gst: root %d has parent %d", r, t.Parent[r])
		}
	}
	for v := 0; v < t.G.N(); v++ {
		if !t.InTree(NodeID(v)) {
			continue
		}
		p := t.Parent[v]
		if isRoot[NodeID(v)] {
			continue
		}
		if p < 0 {
			return fmt.Errorf("gst: member %d (level %d) has no parent", v, t.Level[v])
		}
		if !t.G.HasEdge(NodeID(v), p) {
			return fmt.Errorf("gst: parent edge (%d,%d) not in graph", v, p)
		}
		if t.Level[p] != t.Level[v]-1 {
			return fmt.Errorf("gst: node %d level %d but parent %d level %d", v, t.Level[v], p, t.Level[p])
		}
	}
	return nil
}

func (t *Tree) validateBFS() error {
	// BFS over the member-induced subgraph from the roots.
	dist := make([]int32, t.G.N())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]NodeID, 0, t.G.N())
	for _, r := range t.Roots {
		dist[r] = 0
		queue = append(queue, r)
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range t.G.Neighbors(v) {
			if !t.InTree(u) || dist[u] >= 0 {
				continue
			}
			dist[u] = dist[v] + 1
			queue = append(queue, u)
		}
	}
	for v := 0; v < t.G.N(); v++ {
		if t.InTree(NodeID(v)) && dist[v] != t.Level[v] {
			return fmt.Errorf("gst: node %d level %d but BFS distance %d", v, t.Level[v], dist[v])
		}
	}
	return nil
}

func (t *Tree) validateRanks() error {
	children := t.Children()
	for v := 0; v < t.G.N(); v++ {
		if !t.InTree(NodeID(v)) {
			continue
		}
		want := rankFromChildren(t.Rank, children[v])
		if t.Rank[v] != want {
			return fmt.Errorf("gst: node %d rank %d violates ranking rule (want %d)", v, t.Rank[v], want)
		}
	}
	bound := int32(sched.LogN(t.G.N())) + 1
	if mr := t.MaxRank(); mr > bound {
		return fmt.Errorf("gst: max rank %d exceeds ⌈log n⌉+1 = %d", mr, bound)
	}
	return nil
}

// ValidateCollisionFreeness checks only invariant 5 (used to show
// naive ranked BFS trees fail it, Figure 1).
func (t *Tree) ValidateCollisionFreeness() error {
	// For each level boundary and rank r, M = {(u, parent(u)) :
	// rank(u) = rank(parent(u)) = r}. Mark parents appearing in M;
	// then for each M-edge (u,v), any other same-rank same-level
	// neighbor w of u that is also an M-parent violates the induced
	// matching.
	inM := make([]bool, t.G.N()) // node is a parent in some M-pair
	for v := 0; v < t.G.N(); v++ {
		p := t.Parent[v]
		if p >= 0 && t.Rank[v] == t.Rank[p] {
			inM[p] = true
		}
	}
	for v := 0; v < t.G.N(); v++ {
		p := t.Parent[v]
		if p < 0 || t.Rank[v] != t.Rank[p] {
			continue
		}
		for _, w := range t.G.Neighbors(NodeID(v)) {
			if w == p || !t.InTree(w) {
				continue
			}
			if t.Level[w] == t.Level[v]-1 && t.Rank[w] == t.Rank[v] && inM[w] {
				return fmt.Errorf(
					"gst: collision-freeness violated: node %d (level %d rank %d, parent %d) adjacent to M-parent %d",
					v, t.Level[v], t.Rank[v], p, w)
			}
		}
	}
	return nil
}
