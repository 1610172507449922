package assign

import (
	"fmt"
	"testing"

	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/radio"
	"radiocast/internal/recruit"
	"radiocast/internal/rng"
)

// boundary builds a two-level test instance from any connected graph:
// nodes at BFS level 0/1 from node 0 form reds, level-1 nodes are
// blues; deeper nodes are dropped. Returns the induced graph, the red
// count, and blue ranks (from a centralized GST of the full graph, so
// ranks are realistic).
func twoLevelInstance(g *graph.Graph) (sub *graph.Graph, isRed []bool, blueRank []int32) {
	bfs := graph.BFS(g, 0)
	tree := gst.Construct(g, 0)
	keep := make([]graph.NodeID, 0)
	for v := 0; v < g.N(); v++ {
		if bfs.Dist[v] == 0 || bfs.Dist[v] == 1 {
			keep = append(keep, graph.NodeID(v))
		}
	}
	idx := make(map[graph.NodeID]graph.NodeID, len(keep))
	for i, v := range keep {
		idx[v] = graph.NodeID(i)
	}
	b := graph.NewBuilder(len(keep))
	isRed = make([]bool, len(keep))
	blueRank = make([]int32, len(keep))
	for _, v := range keep {
		for _, u := range g.Neighbors(v) {
			if lu, ok := idx[u]; ok {
				b.AddEdge(idx[v], lu)
			}
		}
		if bfs.Dist[v] == 0 {
			isRed[idx[v]] = true
		} else {
			blueRank[idx[v]] = tree.Rank[v]
		}
	}
	return b.Build(), isRed, blueRank
}

// runBoundary executes the assignment on a two-level instance. paramN
// is the full-network size the schedule is derived from (the paper
// assumes nodes know a polynomial upper bound on n, not the boundary
// size).
func runBoundary(t *testing.T, sub *graph.Graph, isRed []bool, blueRank []int32, paramN, c int, seed uint64) []*Node {
	t.Helper()
	p := DefaultParams(paramN, c)
	nw := radio.New(sub, radio.Config{})
	nodes := make([]*Node, sub.N())
	for v := 0; v < sub.N(); v++ {
		role := Blue
		if isRed[v] {
			role = Red
		}
		nodes[v] = NewNode(p, graph.NodeID(v), role, blueRank[v], rng.New(seed, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), nodes[v])
	}
	nw.Run(p.BoundaryRounds())
	return nodes
}

// verifyAssignment checks the six properties of the Bipartite
// Assignment Problem on the result.
func verifyAssignment(t *testing.T, sub *graph.Graph, isRed []bool, blueRank []int32, nodes []*Node) {
	t.Helper()
	children := make(map[graph.NodeID][]graph.NodeID)
	for v, nd := range nodes {
		if isRed[v] {
			continue
		}
		// (1) every blue assigned to a red neighbor.
		if !nd.Assigned() {
			t.Fatalf("blue %d (rank %d) unassigned", v, blueRank[v])
		}
		p := nd.Parent()
		if !sub.HasEdge(graph.NodeID(v), p) || !isRed[p] {
			t.Fatalf("blue %d assigned to invalid parent %d", v, p)
		}
		children[p] = append(children[p], graph.NodeID(v))
	}
	// (2)+(4) red ranks follow the ranking rule over assigned children.
	for v, nd := range nodes {
		if !isRed[v] {
			continue
		}
		ch := children[graph.NodeID(v)]
		if len(ch) == 0 {
			if nd.RedRanked() {
				t.Fatalf("childless red %d has rank %d", v, nd.RedRank())
			}
			continue
		}
		var best int32
		cnt := 0
		for _, c := range ch {
			switch {
			case blueRank[c] > best:
				best, cnt = blueRank[c], 1
			case blueRank[c] == best:
				cnt++
			}
		}
		want := best
		if cnt >= 2 {
			want = best + 1
		}
		if !nd.RedRanked() || nd.RedRank() != want {
			t.Fatalf("red %d rank %d (ranked=%v), want %d (children ranks via %v)",
				v, nd.RedRank(), nd.RedRanked(), want, ch)
		}
	}
	// (5)+(6) blues know their parent's rank.
	for v, nd := range nodes {
		if isRed[v] {
			continue
		}
		if nd.ParentRank() != nodes[nd.Parent()].RedRank() {
			t.Fatalf("blue %d believes parent rank %d, parent %d has %d",
				v, nd.ParentRank(), nd.Parent(), nodes[nd.Parent()].RedRank())
		}
	}
	// (3) collision-freeness: same-rank parent-child pairs form an
	// induced matching.
	inM := make([]bool, sub.N())
	for v, nd := range nodes {
		if !isRed[v] && blueRank[v] == nd.ParentRank() {
			inM[nd.Parent()] = true
		}
	}
	for v, nd := range nodes {
		if isRed[v] || blueRank[v] != nd.ParentRank() {
			continue
		}
		for _, w := range sub.Neighbors(graph.NodeID(v)) {
			if w == nd.Parent() || !isRed[w] {
				continue
			}
			if inM[w] && nodes[w].RedRank() == blueRank[v] {
				t.Fatalf("collision-freeness violated: blue %d (rank %d) adjacent to M-parent %d",
					v, blueRank[v], w)
			}
		}
	}
}

func TestBoundaryOnFamilies(t *testing.T) {
	cases := []*graph.Graph{
		graph.Star(20),           // one red, many blues
		graph.Path(3),            // 1 red, 1 blue after truncation
		graph.Complete(12),       // all blues adjacent to the single red
		graph.GNP(40, 0.15, 2),   // bushy level-1
		graph.Grid(2, 10),        // thin boundary
		graph.ClusterChain(2, 8), // dense cluster boundary
	}
	for _, g := range cases {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			sub, isRed, blueRank := twoLevelInstance(g)
			nodes := runBoundary(t, sub, isRed, blueRank, g.N(), 2, 7)
			verifyAssignment(t, sub, isRed, blueRank, nodes)
		})
	}
}

func TestBoundaryMultiSeed(t *testing.T) {
	g := graph.GNP(50, 0.12, 11)
	sub, isRed, blueRank := twoLevelInstance(g)
	for seed := uint64(0); seed < 5; seed++ {
		nodes := runBoundary(t, sub, isRed, blueRank, g.N(), 2, seed)
		verifyAssignment(t, sub, isRed, blueRank, nodes)
	}
}

func TestBoundaryMixedBlueRanks(t *testing.T) {
	// Synthetic boundary with explicitly mixed blue ranks: two reds,
	// six blues with ranks {1,1,2,2,3,3}, complete bipartite — forces
	// high-rank sub-problems, promotions, and mop-up assignments.
	nRed, nBlue := 3, 6
	b := graph.NewBuilder(nRed + nBlue)
	for v := 0; v < nRed; v++ {
		for u := 0; u < nBlue; u++ {
			b.AddEdge(graph.NodeID(v), graph.NodeID(nRed+u))
		}
	}
	sub := b.Build()
	isRed := make([]bool, sub.N())
	blueRank := make([]int32, sub.N())
	for v := 0; v < nRed; v++ {
		isRed[v] = true
	}
	ranks := []int32{1, 1, 2, 2, 3, 3}
	for u := 0; u < nBlue; u++ {
		blueRank[nRed+u] = ranks[u]
	}
	for seed := uint64(0); seed < 4; seed++ {
		nodes := runBoundary(t, sub, isRed, blueRank, 64, 2, seed)
		verifyAssignment(t, sub, isRed, blueRank, nodes)
	}
}

func TestLonerFastPath(t *testing.T) {
	// A perfect matching boundary: every blue is a loner, so epoch 1
	// part 1 must resolve everything permanently with all reds rank 1.
	const pairs = 8
	b := graph.NewBuilder(2 * pairs)
	for i := 0; i < pairs; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(pairs+i))
	}
	sub := b.Build()
	isRed := make([]bool, sub.N())
	blueRank := make([]int32, sub.N())
	for i := 0; i < pairs; i++ {
		isRed[i] = true
		blueRank[pairs+i] = 1
	}
	nodes := runBoundary(t, sub, isRed, blueRank, 64, 2, 3)
	verifyAssignment(t, sub, isRed, blueRank, nodes)
	for i := 0; i < pairs; i++ {
		if nodes[i].RedRank() != 1 {
			t.Fatalf("matched red %d rank %d, want 1", i, nodes[i].RedRank())
		}
		if nodes[pairs+i].Parent() != graph.NodeID(i) {
			t.Fatalf("blue %d parent %d, want %d", pairs+i, nodes[pairs+i].Parent(), i)
		}
	}
}

func TestSharedRedPromotes(t *testing.T) {
	// One red adjacent to two rank-1 blues with no other reds: the red
	// must adopt both (loner path) and take rank 2.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	sub := b.Build()
	isRed := []bool{true, false, false}
	blueRank := []int32{0, 1, 1}
	nodes := runBoundary(t, sub, isRed, blueRank, 32, 4, 1)
	verifyAssignment(t, sub, isRed, blueRank, nodes)
	if nodes[0].RedRank() != 2 {
		t.Fatalf("red rank %d, want 2", nodes[0].RedRank())
	}
}

func TestLocateCoversBoundary(t *testing.T) {
	p := DefaultParams(64, 1)
	counts := map[Window]int64{}
	var prev Pos
	ly := p.layout()
	for off := int64(0); off < p.BoundaryRounds(); off++ {
		pos := ly.locate(off)
		counts[pos.Win]++
		if off > 0 && pos.Rank > prev.Rank {
			t.Fatal("rank increased over time; must be decreasing")
		}
		prev = pos
	}
	// Segment length accounting.
	ranks := int64(p.MaxRank())
	epochs := int64(p.Epochs())
	if counts[WinIdent] != ranks*p.decayLen() {
		t.Fatalf("ident rounds %d", counts[WinIdent])
	}
	if counts[WinPing] != ranks*epochs {
		t.Fatalf("ping rounds %d", counts[WinPing])
	}
	if counts[WinPart1] != ranks*epochs*p.Rec.Rounds() {
		t.Fatalf("part1 rounds %d", counts[WinPart1])
	}
	if counts[WinMop] != ranks*epochs*p.decayLen() {
		t.Fatalf("mop rounds %d", counts[WinMop])
	}
}

func TestBoundaryRoundsBudget(t *testing.T) {
	// The schedule must stay Θ(log^5 n)-shaped: for n=256 (L=8) with
	// c=1 the boundary is far below 64·L^5.
	p := DefaultParams(256, 1)
	l := int64(p.L)
	if p.BoundaryRounds() > 64*l*l*l*l*l {
		t.Fatalf("boundary %d rounds exceeds Θ(log^5) envelope", p.BoundaryRounds())
	}
	fmt.Printf("boundary rounds for n=256, c=1: %d (L=%d)\n", p.BoundaryRounds(), p.L)
}

func TestRecruitParamsEmbedded(t *testing.T) {
	p := DefaultParams(128, 2)
	if p.Rec.L != p.L {
		t.Fatal("recruit phase length mismatch")
	}
	if p.Rec.Iterations() != 2*p.L*p.L {
		t.Fatal("recruit iterations mismatch")
	}
	_ = recruit.ClassMany // package is exercised through the boundary
}
