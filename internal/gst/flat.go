package gst

// Flat is the one per-node view of a GST that the MMV schedule reads:
// level, rank, virtual distance, parent linkage and stretch role, in
// per-node flat arrays with no per-node structs and no maps. Row v is
// node v's knowledge. A centralized Tree fills every row at once
// (Flatten); in the distributed constructions each node writes only
// its own row once it has learned it (gstdist.Result.Put).
//
// Non-members (Level < 0) and members unreachable in the virtual graph
// (Vdist < 0) carry sentinels, so both engines apply the same "not
// part of the structure" guard (Member).
type Flat struct {
	// Parent is the tree parent (-1 for roots and non-members).
	Parent []NodeID
	// Level, Rank, Vdist are the BFS level, the GST rank and the
	// virtual distance d(v) of Lemma 3.4 (-1 / 0 / -1 for
	// non-members).
	Level []int32
	Rank  []int32
	Vdist []int32
	// ParentRank is Rank[Parent[v]], 0 when v has no parent.
	ParentRank []int32
	// SameRankChild marks nodes with a child of equal rank — the fast
	// transmitters of the DESIGN.md fast-slot rule.
	SameRankChild []bool
	// StretchStart marks roots and nodes whose parent has a different
	// rank: the nodes that send fresh content in their fast slot.
	StretchStart []bool
	// Root marks the forest roots.
	Root []bool
}

// NewFlat allocates an n-row Flat with every row zero.
func NewFlat(n int) *Flat {
	return &Flat{
		Parent:        make([]NodeID, n),
		Level:         make([]int32, n),
		Rank:          make([]int32, n),
		Vdist:         make([]int32, n),
		ParentRank:    make([]int32, n),
		SameRankChild: make([]bool, n),
		StretchStart:  make([]bool, n),
		Root:          make([]bool, n),
	}
}

// N returns the node count.
func (f *Flat) N() int { return len(f.Parent) }

// Member reports whether v participates in the schedule (the guard of
// the MMV schedule: in the forest and reachable in G').
func (f *Flat) Member(v NodeID) bool { return f.Level[v] >= 0 && f.Vdist[v] >= 0 }

// Flatten extracts the flat arrays from a centralized Tree. It is
// map-free: the virtual-distance BFS keeps the fast edges in a
// two-pass CSR over stretch starts, so flattening a million-node tree
// costs O(n + m) with a handful of flat allocations.
func Flatten(t *Tree) *Flat {
	n := t.G.N()
	f := NewFlat(n)
	copy(f.Parent, t.Parent)
	copy(f.Level, t.Level)
	copy(f.Rank, t.Rank)
	for _, r := range t.Roots {
		f.Root[r] = true
	}
	for v := 0; v < n; v++ {
		if p := t.Parent[v]; p >= 0 {
			f.ParentRank[v] = t.Rank[p]
			if t.Rank[p] == t.Rank[v] {
				f.SameRankChild[p] = true
			}
		}
		if t.InTree(NodeID(v)) {
			p := t.Parent[v]
			f.StretchStart[v] = p < 0 || t.Rank[p] != t.Rank[v]
		}
	}
	f.virtualDistances(t)
	return f
}

// virtualDistances fills Vdist: BFS from the roots over G' = (member
// graph, both directions) ∪ (fast edges from each stretch start to
// every node of its stretch). The fast edges live in a CSR built by
// counting stretch members per start — no map.
func (f *Flat) virtualDistances(t *Tree) {
	n := t.G.N()
	info := Stretches(t)
	// Pass 1: count fast-edge targets per stretch start.
	fastOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		if t.InTree(NodeID(v)) && info[v].Start != NodeID(v) {
			fastOff[info[v].Start+1]++
		}
	}
	for i := 0; i < n; i++ {
		fastOff[i+1] += fastOff[i]
	}
	// Pass 2: fill.
	fastEdges := make([]NodeID, fastOff[n])
	fill := make([]int32, n)
	for v := 0; v < n; v++ {
		if t.InTree(NodeID(v)) && info[v].Start != NodeID(v) {
			s := info[v].Start
			fastEdges[fastOff[s]+fill[s]] = NodeID(v)
			fill[s]++
		}
	}
	dist := f.Vdist
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
		dv := dist[v]
		for _, u := range t.G.Neighbors(v) {
			if t.InTree(u) && dist[u] < 0 {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
		for _, u := range fastEdges[fastOff[v]:fastOff[v+1]] {
			if dist[u] < 0 {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
}
