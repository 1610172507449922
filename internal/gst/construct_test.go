package gst

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"radiocast/internal/graph"
)

// constructReference is the original map-based centralized
// construction, kept as the twin Construct must reproduce byte for
// byte: the same greedy with per-boundary children lists, map-keyed
// candidate counts and a closing full ranking pass.
func constructReference(g *graph.Graph, roots ...NodeID) *Tree {
	t := NewTree(g, roots)
	bfs := graph.BFS(g, roots...)
	for v := 0; v < g.N(); v++ {
		t.Level[v] = bfs.Dist[v]
	}
	maxLevel := bfs.MaxDist
	byLevel := make([][]NodeID, maxLevel+1)
	for v := 0; v < g.N(); v++ {
		if l := t.Level[v]; l >= 0 {
			byLevel[l] = append(byLevel[l], NodeID(v))
		}
	}
	for l := maxLevel; l >= 1; l-- {
		referenceAssignBoundary(t, byLevel[l])
	}
	children := t.Children()
	for l := maxLevel; l >= 0; l-- {
		for _, v := range byLevel[l] {
			t.Rank[v] = rankFromChildren(t.Rank, children[v])
		}
	}
	return t
}

func referenceAssignBoundary(t *Tree, blues []NodeID) {
	if len(blues) == 0 {
		return
	}
	children := t.Children()
	rankOf := make(map[NodeID]int32, len(blues))
	var maxRank int32 = 1
	for _, u := range blues {
		r := rankFromChildren(t.Rank, children[u])
		rankOf[u] = r
		t.Rank[u] = r
		if r > maxRank {
			maxRank = r
		}
	}
	for r := maxRank; r >= 1; r-- {
		referenceAssignRank(t, blues, rankOf, r)
	}
}

func referenceAssignRank(t *Tree, blues []NodeID, rankOf map[NodeID]int32, r int32) {
	unassigned := make(map[NodeID]bool)
	for _, u := range blues {
		if rankOf[u] == r && t.Parent[u] < 0 {
			unassigned[u] = true
		}
	}
	if len(unassigned) == 0 {
		return
	}
	count := make(map[NodeID]int)
	redsOf := func(u NodeID) []NodeID {
		var out []NodeID
		for _, w := range t.G.Neighbors(u) {
			if t.InTree(w) && t.Level[w] == t.Level[u]-1 {
				out = append(out, w)
			}
		}
		return out
	}
	for u := range unassigned {
		for _, v := range redsOf(u) {
			count[v]++
		}
	}
	queue := make([]NodeID, 0, len(count))
	for v := range count {
		queue = append(queue, v)
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	for _, v := range queue {
		if count[v] < 2 {
			continue
		}
		for _, u := range t.G.Neighbors(v) {
			if !unassigned[u] {
				continue
			}
			t.Parent[u] = v
			delete(unassigned, u)
			for _, w := range redsOf(u) {
				count[w]--
			}
		}
	}
	remaining := make([]NodeID, 0, len(unassigned))
	for u := range unassigned {
		remaining = append(remaining, u)
	}
	sort.Slice(remaining, func(i, j int) bool { return remaining[i] < remaining[j] })
	for _, u := range remaining {
		if reds := redsOf(u); len(reds) > 0 {
			t.Parent[u] = reds[0]
		}
	}
}

// checkTwin requires Construct to match constructReference byte for
// byte and to pass every GST invariant.
func checkTwin(t *testing.T, label string, g *graph.Graph, roots ...NodeID) {
	t.Helper()
	got, want := Construct(g, roots...), constructReference(g, roots...)
	for _, c := range []struct {
		name      string
		got, want []int32
	}{
		{"Parent", got.Parent, want.Parent},
		{"Level", got.Level, want.Level},
		{"Rank", got.Rank, want.Rank},
	} {
		if i := mismatch(c.got, c.want); i >= 0 {
			t.Fatalf("%s roots %v: %s[%d] = %d, reference %d", label, roots, c.name, i, c.got[i], c.want[i])
		}
	}
	if !slices.Equal(got.Roots, want.Roots) {
		t.Fatalf("%s: roots %v, reference %v", label, got.Roots, want.Roots)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s roots %v: %v", label, roots, err)
	}
}

// mismatch returns the first index where a and b differ, or -1.
func mismatch(a, b []int32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// disjointUnion places b's nodes after a's, with no edge between them.
func disjointUnion(a, b *graph.Graph) *graph.Graph {
	bl := graph.NewBuilder(a.N() + b.N())
	bl.SetName(a.Name() + "+" + b.Name())
	for v := 0; v < a.N(); v++ {
		for _, u := range a.Neighbors(NodeID(v)) {
			bl.AddEdge(NodeID(v), u)
		}
	}
	off := NodeID(a.N())
	for v := 0; v < b.N(); v++ {
		for _, u := range b.Neighbors(NodeID(v)) {
			bl.AddEdge(NodeID(v)+off, u+off)
		}
	}
	return bl.Build()
}

// TestConstructMatchesReference pins Construct to the map-based
// reference on deep BFS shapes (grids and cluster chains, degenerate
// 1×k and k×1 included), paths, random graphs with one and two roots,
// multi-root forests and a disconnected graph whose second component
// is outside the forest.
func TestConstructMatchesReference(t *testing.T) {
	shapes := []*graph.Graph{
		graph.Grid(1, 1), graph.Grid(1, 9), graph.Grid(9, 1), graph.Grid(13, 17), graph.Grid(40, 40),
		graph.ClusterChain(1, 8), graph.ClusterChain(8, 1), graph.ClusterChain(6, 5), graph.ClusterChain(25, 12),
		graph.Path(1), graph.Path(2), graph.Path(97),
		graph.Caterpillar(10, 3), graph.BinaryTree(127), graph.Hypercube(6),
	}
	for _, g := range shapes {
		checkTwin(t, g.Name(), g, 0)
	}
	for seed := uint64(1); seed <= 40; seed++ {
		g := graph.GNP(60, 0.08, seed)
		label := fmt.Sprintf("gnp seed %d", seed)
		checkTwin(t, label, g, 0)
		checkTwin(t, label, g, 0, 5)
	}
	checkTwin(t, "grid forest", graph.Grid(8, 11), 0, 10, 80)
	checkTwin(t, "grid first row", graph.Grid(8, 8), 0, 1, 2, 3, 4, 5, 6, 7)
	checkTwin(t, "cluster forest", graph.ClusterChain(10, 6), 0, 59, 30)
	checkTwin(t, "duplicate roots", graph.Grid(5, 5), 12, 12)
	split := disjointUnion(graph.Grid(6, 7), graph.ClusterChain(4, 5))
	checkTwin(t, "disconnected", split, 3)
	checkTwin(t, "disconnected forest", split, 3, 50)
}

// FuzzConstructTwin: Construct vs constructReference on a
// fuzzer-chosen small graph (byte pairs are edges mod n) and root set
// (bytes mod n; node 0 when empty). Disconnected inputs are expected —
// the forest then leaves the unreached nodes out.
func FuzzConstructTwin(f *testing.F) {
	f.Add(uint8(1), []byte{}, []byte{})
	f.Add(uint8(6), []byte{0}, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5})
	f.Add(uint8(8), []byte{0, 7}, []byte{0, 1, 0, 2, 1, 3, 2, 3, 3, 4, 4, 5, 6, 7})
	f.Add(uint8(12), []byte{2}, []byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5, 4, 6, 5, 6, 6, 7})
	f.Add(uint8(40), []byte{3, 9}, []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, nRaw uint8, rootBytes, edgeBytes []byte) {
		n := int(nRaw)%64 + 1
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(edgeBytes); i += 2 {
			b.AddEdge(NodeID(int(edgeBytes[i])%n), NodeID(int(edgeBytes[i+1])%n))
		}
		roots := []NodeID{0}
		if len(rootBytes) > 0 {
			roots = roots[:0]
			for _, r := range rootBytes[:min(len(rootBytes), 8)] {
				roots = append(roots, NodeID(int(r)%n))
			}
		}
		checkTwin(t, "fuzz", b.Build(), roots...)
	})
}
