package gst

import (
	"testing"
	"testing/quick"

	"radiocast/internal/geo"
	"radiocast/internal/graph"
	"radiocast/internal/sched"
)

func families() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(40),
		graph.Cycle(30),
		graph.Star(30),
		graph.Complete(16),
		graph.Grid(6, 7),
		graph.BinaryTree(31),
		graph.Hypercube(5),
		graph.ClusterChain(6, 5),
		graph.Caterpillar(10, 2),
		graph.GNP(80, 0.07, 3),
		geo.UnitDisk(90, geo.ConnectivityRadius(90), 5),
	}
}

func TestConstructValidatesOnFamilies(t *testing.T) {
	for _, g := range families() {
		t.Run(g.Name(), func(t *testing.T) {
			tree := Construct(g, 0)
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConstructRandomGraphsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(60, 0.08, seed)
		tree := Construct(g, 0)
		return tree.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructMultiRoot(t *testing.T) {
	g := graph.Grid(8, 8)
	// Roots: the whole first row (a ring inner boundary).
	roots := make([]NodeID, 8)
	for i := range roots {
		roots[i] = NodeID(i)
	}
	tree := Construct(g, roots...)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, r := range roots {
		if tree.Level[r] != 0 {
			t.Fatalf("root %d level %d", r, tree.Level[r])
		}
	}
	if tree.MaxLevel() != 7 {
		t.Fatalf("max level %d, want 7", tree.MaxLevel())
	}
}

func TestRankBound(t *testing.T) {
	for _, g := range families() {
		tree := Construct(g, 0)
		if mr := tree.MaxRank(); int(mr) > sched.LogN(g.N())+1 {
			t.Fatalf("%s: max rank %d > ⌈log n⌉", g.Name(), mr)
		}
	}
}

func TestRankRule(t *testing.T) {
	// Hand-built tree: root with two rank-1 children -> rank 2;
	// chain of single children keeps rank.
	g := graph.BinaryTree(7)
	tree := Construct(g, 0)
	// Complete binary tree on 7 nodes: leaves 3,4,5,6 rank 1;
	// nodes 1,2 have two rank-1 children -> rank 2; root has two
	// rank-2 children -> rank 3.
	wantRanks := map[int]int32{3: 1, 4: 1, 5: 1, 6: 1, 1: 2, 2: 2, 0: 3}
	for v, want := range wantRanks {
		if tree.Rank[v] != want {
			t.Fatalf("node %d rank %d, want %d", v, tree.Rank[v], want)
		}
	}
}

func TestPathIsSingleStretch(t *testing.T) {
	g := graph.Path(20)
	tree := Construct(g, 0)
	info := Stretches(tree)
	for v := 0; v < 20; v++ {
		if tree.Rank[v] != 1 {
			t.Fatalf("path node %d rank %d", v, tree.Rank[v])
		}
		if info[v].Start != 0 || int(info[v].Pos) != v {
			t.Fatalf("node %d stretch (%d,%d), want (0,%d)", v, info[v].Start, info[v].Pos, v)
		}
	}
}

func TestNaiveViolatesGadget(t *testing.T) {
	g := FigureOneGadget()
	naive := NaiveRankedBFS(g, 0)
	if err := naive.ValidateCollisionFreeness(); err == nil {
		t.Fatal("naive ranked BFS on the gadget should violate collision-freeness")
	}
	proper := Construct(g, 0)
	if err := proper.Validate(); err != nil {
		t.Fatalf("GST construction failed on gadget: %v", err)
	}
}

func TestFigureOneGraphConstructs(t *testing.T) {
	g := FigureOneGraph()
	if !graph.IsConnected(g) {
		t.Fatal("figure-1 graph disconnected")
	}
	tree := Construct(g, 0)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.MaxRank() < 2 {
		t.Fatal("figure-1 graph should produce multiple ranks")
	}
}

func TestVirtualDistanceBound(t *testing.T) {
	// Lemma 3.4: d(u) <= 2⌈log2 n⌉ for every node.
	for _, g := range families() {
		tree := Construct(g, 0)
		vdist := Flatten(tree).Vdist
		bound := int32(2 * (sched.LogN(g.N()) + 1))
		for v := 0; v < g.N(); v++ {
			if vdist[v] < 0 {
				t.Fatalf("%s: node %d unreachable in G'", g.Name(), v)
			}
			if vdist[v] > bound {
				t.Fatalf("%s: node %d virtual distance %d > %d", g.Name(), v, vdist[v], bound)
			}
		}
		if vdist[0] != 0 {
			t.Fatalf("%s: root virtual distance %d", g.Name(), vdist[0])
		}
	}
}

func TestVirtualDistanceStretchIsOneHop(t *testing.T) {
	// Along a fast stretch, every node is one fast edge from the
	// start, so d(node) <= d(start) + 1.
	g := graph.Path(30)
	tree := Construct(g, 0)
	vdist := Flatten(tree).Vdist
	// Path: single stretch from root; every node at virtual distance 1
	// (fast edge from root), root at 0.
	for v := 1; v < 30; v++ {
		if vdist[v] != 1 {
			t.Fatalf("node %d virtual distance %d, want 1", v, vdist[v])
		}
	}
}

// fastEdgesCollisionFree verifies the implementation invariant behind
// Lemma 3.5 for a given tree: for every node u with a same-rank parent
// (a fast-wave receiver), u has exactly one neighbor w at level-1 with
// rank(w) = rank(u) that has a same-rank child — its parent. Returns
// the number of (receiver, interferer) violations (0 for a valid GST
// with the fast-slot rule of DESIGN.md).
func fastEdgesCollisionFree(t *Tree) int {
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

func TestFastEdgesCollisionFreeOnGSTs(t *testing.T) {
	for _, g := range families() {
		tree := Construct(g, 0)
		if v := fastEdgesCollisionFree(tree); v != 0 {
			t.Fatalf("%s: %d fast-slot collision violations on a valid GST", g.Name(), v)
		}
	}
}

func TestFastEdgesViolationsOnNaive(t *testing.T) {
	if fastEdgesCollisionFree(NaiveRankedBFS(FigureOneGadget(), 0)) == 0 {
		t.Fatal("gadget naive tree should have fast-slot violations")
	}
}

func TestSameRankChildUnique(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(50, 0.1, seed)
		tree := Construct(g, 0)
		children := tree.Children()
		for v := 0; v < g.N(); v++ {
			same := 0
			for _, c := range children[v] {
				if tree.Rank[c] == tree.Rank[v] {
					same++
				}
			}
			if same > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := graph.Grid(4, 4)
	tree := Construct(g, 0)
	// Corrupt a rank.
	tree.Rank[5]++
	if err := tree.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted rank")
	}
	tree = Construct(g, 0)
	// Corrupt a level.
	tree.Level[7]++
	if err := tree.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted level")
	}
	tree = Construct(g, 0)
	// Corrupt a parent to a non-edge.
	tree.Parent[15] = 0
	if err := tree.Validate(); err == nil {
		t.Fatal("Validate accepted non-edge parent")
	}
}

func BenchmarkConstructGrid32(b *testing.B) {
	g := graph.Grid(32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Construct(g, 0)
	}
}

func BenchmarkValidateGrid32(b *testing.B) {
	g := graph.Grid(32, 32)
	tree := Construct(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
