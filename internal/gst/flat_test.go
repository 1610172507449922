package gst

import (
	"slices"
	"testing"

	"radiocast/internal/graph"
)

// Reference derivations of the Flat arrays, straight from the Tree:
// the map-based virtual-distance BFS and the per-node stretch helpers
// that Flatten's CSR pass replaced. Flatten must reproduce them array
// for array (checkFlatTwin).

// stretchStartReference reports whether v begins a fast stretch (is a
// root or has a parent of different rank).
func stretchStartReference(t *Tree, v NodeID) bool {
	p := t.Parent[v]
	return t.InTree(v) && (p < 0 || t.Rank[p] != t.Rank[v])
}

// sameRankChildReference returns v's unique child of equal rank, or
// -1. The ranking rule guarantees uniqueness.
func sameRankChildReference(t *Tree, children [][]NodeID, v NodeID) NodeID {
	for _, c := range children[v] {
		if t.Rank[c] == t.Rank[v] {
			return c
		}
	}
	return -1
}

// virtualDistancesReference computes d(v) for every forest member: BFS
// from the roots over G' = (member-induced G, both directions) ∪ (fast
// edges from each stretch start to every node of its stretch), with
// the fast edges in a map. Non-members get -1.
func virtualDistancesReference(t *Tree) []int32 {
	n := t.G.N()
	info := Stretches(t)
	fast := make(map[NodeID][]NodeID)
	for v := 0; v < n; v++ {
		if !t.InTree(NodeID(v)) {
			continue
		}
		if s := info[v].Start; s != NodeID(v) {
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

// checkFlatTwin requires Flatten(tr) to match the reference
// derivations on every array.
func checkFlatTwin(t *testing.T, label string, tr *Tree) {
	t.Helper()
	n := tr.G.N()
	f := Flatten(tr)
	if f.N() != n {
		t.Fatalf("%s: N=%d want %d", label, f.N(), n)
	}
	vdist := virtualDistancesReference(tr)
	parentRank := make([]int32, n)
	sameRank := make([]bool, n)
	stretchStart := make([]bool, n)
	root := make([]bool, n)
	children := tr.Children()
	for v := 0; v < n; v++ {
		id := NodeID(v)
		if p := tr.Parent[v]; p >= 0 {
			parentRank[v] = tr.Rank[p]
		}
		sameRank[v] = sameRankChildReference(tr, children, id) >= 0
		stretchStart[v] = stretchStartReference(tr, id)
		root[v] = slices.Contains(tr.Roots, id)
		if want := tr.InTree(id) && vdist[v] >= 0; f.Member(id) != want {
			t.Fatalf("%s roots %v: Flat.Member(%d)=%v, want %v", label, tr.Roots, v, !want, want)
		}
	}
	for _, c := range []struct {
		name string
		i    int
	}{
		{"Parent", mismatch(f.Parent, tr.Parent)},
		{"Level", mismatch(f.Level, tr.Level)},
		{"Rank", mismatch(f.Rank, tr.Rank)},
		{"Vdist", mismatch(f.Vdist, vdist)},
		{"ParentRank", mismatch(f.ParentRank, parentRank)},
		{"SameRankChild", mismatch(f.SameRankChild, sameRank)},
		{"StretchStart", mismatch(f.StretchStart, stretchStart)},
		{"Root", mismatch(f.Root, root)},
	} {
		if c.i >= 0 {
			t.Fatalf("%s roots %v: Flat.%s differs from the reference at node %d", label, tr.Roots, c.name, c.i)
		}
	}
}

// flatGraphs are the workloads the flat snapshot is checked against —
// chosen to exercise deep levels (path), wide levels (grid/clique
// chain), random structure, and multi-root forests.
func flatGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":    graph.Path(97),
		"grid":    graph.Grid(9, 14),
		"cluster": graph.ClusterChain(7, 6),
		"gnp":     graph.GNP(240, 0.03, 5),
		"star":    graph.Star(33),
		"binary":  graph.BinaryTree(127),
	}
}

// TestFlattenMatchesTree checks every Flat array against the
// map-using reference derivations on the Tree.
func TestFlattenMatchesTree(t *testing.T) {
	for name, g := range flatGraphs() {
		tr := Construct(g, 0)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: invalid tree: %v", name, err)
		}
		checkFlatTwin(t, name, tr)
	}
}

// TestFlattenMultiRoot covers the forest case (ring decompositions
// root a GST at an entire boundary layer) plus non-member sentinels.
func TestFlattenMultiRoot(t *testing.T) {
	g := graph.Grid(8, 11)
	tr := Construct(g, 0, 10, 80)
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	checkFlatTwin(t, "grid forest", tr)
	f := Flatten(tr)
	roots := 0
	for v := 0; v < g.N(); v++ {
		if f.Root[v] {
			roots++
			if f.Parent[v] != -1 || f.Level[v] != 0 {
				t.Fatalf("root %d has parent %d level %d", v, f.Parent[v], f.Level[v])
			}
		}
	}
	if roots != 3 {
		t.Fatalf("got %d roots, want 3", roots)
	}
}

// FuzzFlattenTwin: Flatten vs the reference derivations on the GST of
// fuzzer-chosen small graphs and root sets (see fuzzForest), so
// disconnected inputs exercise the non-member sentinels.
func FuzzFlattenTwin(f *testing.F) {
	fuzzForest(f, func(t *testing.T, g *graph.Graph, roots []NodeID) {
		checkFlatTwin(t, "fuzz", Construct(g, roots...))
	})
}
