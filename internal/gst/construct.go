package gst

import (
	"slices"

	"radiocast/internal/graph"
)

// Construct builds a GST of g rooted at the given roots, centrally
// (the known-topology setting). It processes level boundaries bottom-up
// and, within each boundary, ranks in decreasing order, mirroring the
// structure of the distributed algorithm of Section 2.2.3 but with the
// randomized epochs replaced by a deterministic greedy:
//
//	step 1: while some red (level l-1) node has ≥ 2 unassigned rank-i
//	        blue (level l) neighbors, adopt them all (the red will get
//	        rank ≥ i+1, so it never constrains rank-i collision
//	        freeness);
//	step 2: every remaining rank-i blue has pairwise non-adjacent
//	        candidate parents (each red now has ≤ 1 unassigned rank-i
//	        neighbor), so assigning each to any neighbor red yields an
//	        induced matching among same-rank pairs.
//
// The result satisfies all GST invariants (Tree.Validate).
//
// Cost: O(n + m·maxRank) time with maxRank ≤ ⌈log2 n⌉+1, in a fixed
// number of flat per-node arrays. The members are ordered by level once
// (levelOrder); every parent keeps a child-rank aggregate (childRanks)
// that its children are folded into as they are assigned, so a blue's
// rank is final the moment its boundary is reached and no closing
// ranking pass is needed.
func Construct(g *graph.Graph, roots ...NodeID) *Tree {
	t := NewTree(g, roots)
	copy(t.Level, graph.BFS(g, roots...).Dist)
	offsets, order := levelOrder(t.Level)
	width := int32(0)
	for l := 1; l < len(offsets); l++ {
		width = max(width, offsets[l]-offsets[l-1])
	}
	c := &constructor{
		t:     t,
		agg:   newChildRanks(g.N()),
		open:  make([]bool, g.N()),
		count: make([]int32, g.N()),
		blues: make([]NodeID, 0, width),
		reds:  make([]NodeID, 0, width),
	}
	// Bottom-up: assign parents for level l from level l-1.
	for l := len(offsets) - 2; l >= 1; l-- {
		c.assignBoundary(order[offsets[l]:offsets[l+1]], int32(l))
	}
	for _, v := range order[:offsets[1]] {
		t.Rank[v] = c.agg.rank(v)
	}
	return t
}

// constructor is Construct's scratch. open and count are all-zero
// between rank passes: each pass resets the entries it touched.
type constructor struct {
	t     *Tree
	agg   childRanks
	open  []bool   // unassigned blue of the current rank pass
	count []int32  // per red: its open blue neighbors
	blues []NodeID // the current pass's blues, ascending id
	reds  []NodeID // the reds with a nonzero count
}

// assignBoundary solves the bipartite assignment problem for the blues
// (the level-l nodes, ascending id); their ranks are final because all
// deeper levels are assigned. Reds are their level-(l-1) neighbors.
func (c *constructor) assignBoundary(level []NodeID, l int32) {
	maxRank := int32(1)
	for _, u := range level {
		c.t.Rank[u] = c.agg.rank(u)
		maxRank = max(maxRank, c.t.Rank[u])
	}
	for r := maxRank; r >= 1; r-- {
		c.assignRank(level, l-1, r)
	}
}

// assignRank assigns parents to all rank-r blues of a level whose reds
// sit at level up.
func (c *constructor) assignRank(level []NodeID, up, r int32) {
	t := c.t
	c.blues = c.blues[:0]
	for _, u := range level {
		if t.Rank[u] == r {
			c.blues = append(c.blues, u)
			c.open[u] = true
		}
	}
	if len(c.blues) == 0 {
		return
	}
	// count[v] = number of open rank-r blue neighbors of red v.
	c.reds = c.reds[:0]
	for _, u := range c.blues {
		for _, v := range t.G.Neighbors(u) {
			if t.Level[v] != up {
				continue
			}
			if c.count[v] == 0 {
				c.reds = append(c.reds, v)
			}
			c.count[v]++
		}
	}
	// Step 1: adopt-all for reds with >= 2 open neighbors, in id order.
	// Counts only ever decrease, so a single pass suffices: a red whose
	// count is below 2 when visited can never grow back above it.
	slices.Sort(c.reds)
	for _, v := range c.reds {
		if c.count[v] < 2 {
			continue
		}
		for _, u := range t.G.Neighbors(v) {
			if !c.open[u] {
				continue
			}
			c.adopt(u, v)
			for _, w := range t.G.Neighbors(u) {
				if t.Level[w] == up {
					c.count[w]--
				}
			}
		}
	}
	// Step 2: every red now has <= 1 open rank-r neighbor; give each
	// remaining blue its smallest red neighbor (a BFS member always has
	// one: its BFS parent).
	for _, u := range c.blues {
		if !c.open[u] {
			continue
		}
		for _, v := range t.G.Neighbors(u) {
			if t.Level[v] == up {
				c.adopt(u, v)
				break
			}
		}
	}
	for _, v := range c.reds {
		c.count[v] = 0
	}
}

// adopt makes red v the parent of blue u and folds u's rank into v's
// child-rank aggregate.
func (c *constructor) adopt(u, v NodeID) {
	c.t.Parent[u] = v
	c.open[u] = false
	c.agg.add(v, c.t.Rank[u])
}

// NaiveRankedBFS builds a plain ranked BFS tree (each node's parent is
// its smallest-id neighbor one level up) without enforcing collision-
// freeness. Figure 1's left side: such trees generally violate the GST
// property, which ValidateCollisionFreeness detects.
func NaiveRankedBFS(g *graph.Graph, roots ...NodeID) *Tree {
	t := NewTree(g, roots)
	bfs := graph.BFS(g, roots...)
	for v := 0; v < g.N(); v++ {
		t.Level[v] = bfs.Dist[v]
		t.Parent[v] = bfs.Parent[v]
	}
	// BFS.Parent already picks the first-discovered neighbor; normalize
	// to smallest-id upper neighbor for determinism.
	for v := 0; v < g.N(); v++ {
		if t.Level[v] <= 0 {
			t.Parent[v] = -1
			continue
		}
		for _, u := range g.Neighbors(NodeID(v)) {
			if t.Level[u] == t.Level[v]-1 {
				t.Parent[v] = u
				break // neighbors are sorted: smallest id
			}
		}
	}
	t.ComputeRanks()
	return t
}
