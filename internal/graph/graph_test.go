package graph

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderDedupAndSymmetry(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop: ignored
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing or asymmetric")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self loop present")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPathProperties(t *testing.T) {
	g := Path(10)
	if g.N() != 10 || g.M() != 9 {
		t.Fatalf("path-10: n=%d m=%d", g.N(), g.M())
	}
	if d := Diameter(g); d != 9 {
		t.Fatalf("diameter = %d, want 9", d)
	}
	if !IsConnected(g) {
		t.Fatal("path disconnected")
	}
	res := BFS(g, 0)
	for v := 0; v < 10; v++ {
		if res.Dist[v] != int32(v) {
			t.Fatalf("dist[%d] = %d", v, res.Dist[v])
		}
	}
}

func TestCycleDiameter(t *testing.T) {
	for _, n := range []int{3, 4, 7, 10} {
		if d := Diameter(Cycle(n)); d != n/2 {
			t.Fatalf("cycle-%d diameter = %d, want %d", n, d, n/2)
		}
	}
}

func TestStarAndComplete(t *testing.T) {
	s := Star(50)
	if Diameter(s) != 2 || s.MaxDegree() != 49 {
		t.Fatalf("star-50: diam=%d maxdeg=%d", Diameter(s), s.MaxDegree())
	}
	k := Complete(12)
	if Diameter(k) != 1 || k.M() != 66 {
		t.Fatalf("K12: diam=%d m=%d", Diameter(k), k.M())
	}
}

func TestGridDiameter(t *testing.T) {
	g := Grid(5, 8)
	if g.N() != 40 {
		t.Fatalf("n = %d", g.N())
	}
	if d := Diameter(g); d != 11 {
		t.Fatalf("grid 5x8 diameter = %d, want 11", d)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTorusRegularity(t *testing.T) {
	g := Torus(4, 5)
	for v := 0; v < g.N(); v++ {
		if g.Degree(NodeID(v)) != 4 {
			t.Fatalf("torus node %d degree %d, want 4", v, g.Degree(NodeID(v)))
		}
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(31)
	if g.M() != 30 || !IsConnected(g) {
		t.Fatalf("bintree-31: m=%d", g.M())
	}
	// Depth of complete binary tree on 31 nodes is 4; diameter 8.
	if d := Diameter(g); d != 8 {
		t.Fatalf("diameter = %d, want 8", d)
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d", g.N(), g.M())
	}
	if d := Diameter(g); d != 4 {
		t.Fatalf("Q4 diameter = %d", d)
	}
}

func TestGNPConnectedAndSeeded(t *testing.T) {
	a := GNP(80, 0.05, 7)
	b := GNP(80, 0.05, 7)
	c := GNP(80, 0.05, 8)
	if !IsConnected(a) {
		t.Fatal("GNP not stitched connected")
	}
	if a.M() != b.M() {
		t.Fatal("same seed produced different graphs")
	}
	if a.M() == c.M() && equalEdges(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func equalEdges(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		av, bv := a.Neighbors(NodeID(v)), b.Neighbors(NodeID(v))
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func TestClusterChainShape(t *testing.T) {
	g := ClusterChain(10, 8)
	if g.N() != 80 {
		t.Fatalf("n = %d", g.N())
	}
	// Diameter: within-clique hop at both ends + bridges: chain cliques
	// contribute 2 hops each except traversal pattern; just check the
	// range Θ(chain).
	d := Diameter(g)
	if d < 10 || d > 30 {
		t.Fatalf("clusterchain diameter = %d, want Θ(chain)=Θ(10)", d)
	}
	if g.MaxDegree() < 7 {
		t.Fatalf("max degree = %d, want ≥ clique-1", g.MaxDegree())
	}
}

func TestLollipopAndCaterpillar(t *testing.T) {
	l := Lollipop(10, 20)
	if !IsConnected(l) || l.N() != 30 {
		t.Fatal("lollipop malformed")
	}
	if d := Diameter(l); d != 21 {
		t.Fatalf("lollipop diameter = %d, want 21", d)
	}
	c := Caterpillar(15, 3)
	if !IsConnected(c) || c.N() != 60 {
		t.Fatal("caterpillar malformed")
	}
	if d := Diameter(c); d != 16 {
		t.Fatalf("caterpillar diameter = %d, want 16", d)
	}
}

func TestRandomRegularDegrees(t *testing.T) {
	g := RandomRegular(100, 6, 11)
	if !IsConnected(g) {
		t.Fatal("random regular not connected")
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(NodeID(v)) > 7 {
			t.Fatalf("node %d degree %d > d+1", v, g.Degree(NodeID(v)))
		}
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := Path(10)
	res := BFS(g, 0, 9)
	if res.Dist[5] != 4 {
		t.Fatalf("dist[5] = %d, want 4 (min of 5, 4)", res.Dist[5])
	}
	if res.MaxDist != 4 {
		t.Fatalf("MaxDist = %d", res.MaxDist)
	}
}

func TestBFSParentsFormTree(t *testing.T) {
	f := func(seed uint64) bool {
		g := GNP(60, 0.08, seed)
		res := BFS(g, 0)
		for v := 1; v < g.N(); v++ {
			p := res.Parent[v]
			if p < 0 {
				return false // connected so everyone has a parent
			}
			if res.Dist[v] != res.Dist[p]+1 {
				return false
			}
			if !g.HasEdge(NodeID(v), p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDOTOutput(t *testing.T) {
	g := Path(3)
	var sb strings.Builder
	if err := DOT(&sb, g, []string{"s", "m", "t"}, []NodeID{-1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"graph G {", "0 -- 1", "1 -- 2", "penwidth=3", `label="s"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestEccentricityPanicsOnDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Eccentricity(g, 0)
}

func BenchmarkBFSGrid64(b *testing.B) {
	g := Grid(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BFS(g, 0)
	}
}

func BenchmarkBuildGNP1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = GNP(1000, 0.01, uint64(i))
	}
}
