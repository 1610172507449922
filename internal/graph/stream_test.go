package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"radiocast/internal/rng"
)

// sameGraph compares the full CSR representation — offsets, edges, and
// name — which is the byte-identity the streaming-CSR contract claims.
func sameGraph(t *testing.T, got, want *Graph, label string) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: n = %d, want %d", label, got.n, want.n)
	}
	if got.name != want.name {
		t.Fatalf("%s: name = %q, want %q", label, got.name, want.name)
	}
	if len(got.offsets) != len(want.offsets) {
		t.Fatalf("%s: offsets len %d, want %d", label, len(got.offsets), len(want.offsets))
	}
	for i := range got.offsets {
		if got.offsets[i] != want.offsets[i] {
			t.Fatalf("%s: offsets[%d] = %d, want %d", label, i, got.offsets[i], want.offsets[i])
		}
	}
	if len(got.edges) != len(want.edges) {
		t.Fatalf("%s: edges len %d, want %d", label, len(got.edges), len(want.edges))
	}
	for i := range got.edges {
		if got.edges[i] != want.edges[i] {
			t.Fatalf("%s: edges[%d] = %d, want %d", label, i, got.edges[i], want.edges[i])
		}
	}
}

// buildViaMaps assembles a stream's emissions with one map per node,
// as the Builder once did, and sorts each row: the independent
// reference FromStream must reproduce (duplicates and self-loops
// dropped, rows sorted).
func buildViaMaps(s EdgeStream) *Graph {
	n := s.N()
	adj := make([]map[NodeID]struct{}, n)
	s.Edges(func(u, v NodeID) {
		if u == v {
			return
		}
		for _, e := range [][2]NodeID{{u, v}, {v, u}} {
			if adj[e[0]] == nil {
				adj[e[0]] = make(map[NodeID]struct{})
			}
			adj[e[0]][e[1]] = struct{}{}
		}
	})
	g := &Graph{n: n, offsets: make([]int32, n+1), name: s.Name()}
	for v, m := range adj {
		g.offsets[v] = int32(len(g.edges))
		for u := range m {
			g.edges = append(g.edges, u)
		}
		slices.Sort(g.edges[g.offsets[v]:])
	}
	g.offsets[n] = int32(len(g.edges))
	return g
}

// TestStreamMatchesLegacyGenerators pins that the deterministic
// generators, which build through FromStream, are byte-identical to
// assembling their streams with the map-based reference, including
// names.
func TestStreamMatchesLegacyGenerators(t *testing.T) {
	cases := []struct {
		stream EdgeStream
		gen    *Graph
	}{
		{StreamPath(0), Path(0)},
		{StreamPath(1), Path(1)},
		{StreamPath(2), Path(2)},
		{StreamPath(257), Path(257)},
		{StreamGrid(1, 1), Grid(1, 1)},
		{StreamGrid(1, 9), Grid(1, 9)},
		{StreamGrid(7, 1), Grid(7, 1)},
		{StreamGrid(13, 17), Grid(13, 17)},
		{StreamClusterChain(1, 1), ClusterChain(1, 1)},
		{StreamClusterChain(1, 8), ClusterChain(1, 8)},
		{StreamClusterChain(6, 1), ClusterChain(6, 1)},
		{StreamClusterChain(9, 7), ClusterChain(9, 7)},
	}
	for _, c := range cases {
		sameGraph(t, c.gen, buildViaMaps(c.stream), c.gen.Name())
	}
}

// randomStream emits a fixed pseudo-random edge sequence that includes
// self-loops and duplicates — the adversarial input for the assembly
// path (the reference drops both; FromStream must match).
type randomStream struct {
	n, m int
	seed uint64
}

func (s randomStream) N() int       { return s.n }
func (s randomStream) Name() string { return fmt.Sprintf("rand-%d-%d", s.n, s.m) }

func (s randomStream) Edges(emit func(u, v NodeID)) {
	r := rng.New(s.seed, 0x7465737473) // "tests"
	for i := 0; i < s.m; i++ {
		emit(NodeID(r.Intn(s.n)), NodeID(r.Intn(s.n)))
	}
}

// TestFromStreamMatchesBuilder is the streaming-CSR contract property
// test: over a randomized small/medium sweep — including streams with
// self-loops and heavy duplication, plus the randomized generators
// (GNP with its skip sampler, the stub-pairing regular sampler) —
// FromStream produces a CSR byte-identical to feeding the identical
// emission sequence through the map-based reference (buildViaMaps).
func TestFromStreamMatchesBuilder(t *testing.T) {
	var streams []EdgeStream
	for seed := uint64(1); seed <= 8; seed++ {
		n := 2 + int(rng.Mix(seed, 0xa)%200)
		m := int(rng.Mix(seed, 0xb) % 2000)
		streams = append(streams, randomStream{n: n, m: m, seed: seed})
		streams = append(streams, StreamGNP(n, 3/float64(n), seed))
		streams = append(streams, StreamGNP(n, 0.3, seed))
		streams = append(streams, StreamRandomRegular(n, 1+int(seed%5), seed))
	}
	streams = append(streams,
		randomStream{n: 1, m: 50, seed: 99}, // only self-loops possible
		StreamGNP(64, 0, 7),                 // p=0: empty
		StreamGNP(16, 1, 7),                 // p>=1: complete
		StreamGNP(1, 0.5, 7),                // no pairs
		StreamRandomRegular(10, 0, 7),       // d=0: empty
	)
	for _, s := range streams {
		sameGraph(t, FromStream(s), buildViaMaps(s), s.Name())
	}
}

// emissions counts a stream's emissions that are not self-loops.
func emissions(s EdgeStream) int {
	m := 0
	s.Edges(func(u, v NodeID) {
		if u != v {
			m++
		}
	})
	return m
}

// TestFromStreamConcurrentWalk is the streaming-CSR contract for the
// two-half walk on streams large enough that both halves hold many
// rows: the CSR must equal the reference's on monotone generators (GNP, a
// grid, a cluster chain), on the shuffled and duplicate-bearing
// stub-pairing sampler, and on a random stream with duplicates and
// self-loops.
func TestFromStreamConcurrentWalk(t *testing.T) {
	for _, s := range []EdgeStream{
		StreamGNP(20000, 8.0/20000, 5),
		StreamGrid(200, 200),
		StreamClusterChain(100, 30),
		StreamRandomRegular(20000, 4, 5),
		randomStream{n: 2000, m: 60000, seed: 5},
	} {
		got, want := FromStream(s), buildViaMaps(s)
		sameGraph(t, got, want, s.Name())
		if _, dup := s.(randomStream); dup && 2*got.M() == emissions(s) {
			t.Fatalf("%s: no duplicate emission", s.Name())
		}
	}
}

// TestEccentricityReuse checks Eccentricity(g, 0) against BFS on
// graphs that BuildConnected found connected (which keep the depth of
// its sweep), on stitched ones (which keep nothing) and on graphs that
// FromStream built alone.
func TestEccentricityReuse(t *testing.T) {
	for _, c := range []struct {
		g    *Graph
		kept bool
	}{
		{BuildConnected(StreamGNP(3000, 16.0/3000, 2), 2), true},
		{BuildConnected(StreamPath(300), 1), true},
		{BuildConnected(StreamClusterChain(9, 7), 1), true},
		{BuildConnected(StreamPath(1), 1), true},
		{BuildConnected(StreamGNP(3000, 1.0/3000, 2), 2), false},
		{BuildConnected(StreamGNP(50, 0, 2), 2), false},
		{FromStream(StreamGrid(20, 30)), false},
		{FromStream(StreamGNP(2000, 16.0/2000, 3)), false},
	} {
		g := c.g
		if kept := g.ecc0 > 0; kept != c.kept {
			t.Fatalf("%s (m=%d): keeps an eccentricity = %v, want %v", g.Name(), g.M(), kept, c.kept)
		}
		res := BFS(g, 0)
		if res.Reached != g.N() {
			continue // disconnected: Eccentricity panics
		}
		if ecc := Eccentricity(g, 0); ecc != int(res.MaxDist) {
			t.Fatalf("%s: Eccentricity(g, 0) = %d, BFS says %d", g.Name(), ecc, res.MaxDist)
		}
		if !IsConnected(g) {
			t.Fatalf("%s: IsConnected = false on a connected graph", g.Name())
		}
	}
}

// TestFromStreamValid runs the structural validator over streamed
// graphs: symmetric, sorted, deduplicated, loop-free rows.
func TestFromStreamValid(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, s := range []EdgeStream{
			randomStream{n: 50, m: 600, seed: seed},
			StreamGNP(80, 0.1, seed),
			StreamRandomRegular(60, 4, seed),
		} {
			if err := FromStream(s).Validate(); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
		}
	}
}

// buildConnectedRebuild is the reference for BuildConnected's splice:
// the stitch edges are chosen from full BFS results, and the graph is
// assembled again by FromStream over its own edges plus the stitch
// edges.
func buildConnectedRebuild(s EdgeStream, seed uint64) *Graph {
	g := FromStream(s)
	if g.n == 0 {
		return g
	}
	res := BFS(g, 0)
	if res.Reached == g.n {
		return g
	}
	r := rng.New(seed, 0x737469) // "sti"
	var reached []NodeID
	for v := 0; v < g.n; v++ {
		if res.Dist[v] >= 0 {
			reached = append(reached, NodeID(v))
		}
	}
	visited := res.Dist
	var extra [][2]NodeID
	for v := 0; v < g.n; v++ {
		if visited[v] >= 0 {
			continue
		}
		comp := []NodeID{NodeID(v)}
		visited[v] = 0
		for head := 0; head < len(comp); head++ {
			for _, u := range g.Neighbors(comp[head]) {
				if visited[u] < 0 {
					visited[u] = 0
					comp = append(comp, u)
				}
			}
		}
		main := reached[r.Intn(len(reached))]
		extra = append(extra, [2]NodeID{main, comp[r.Intn(len(comp))]})
	}
	return FromStream(&augmentedStream{g: g, extra: extra})
}

// augmentedStream re-emits a built graph's edges plus extra edges.
type augmentedStream struct {
	g     *Graph
	extra [][2]NodeID
}

func (a *augmentedStream) N() int       { return a.g.n }
func (a *augmentedStream) Name() string { return a.g.name }

func (a *augmentedStream) Edges(emit func(u, v NodeID)) {
	for v := 0; v < a.g.n; v++ {
		for _, u := range a.g.Neighbors(NodeID(v)) {
			if u > NodeID(v) {
				emit(NodeID(v), u)
			}
		}
	}
	for _, e := range a.extra {
		emit(e[0], e[1])
	}
}

// stitchRebuild is the reference for StitchConnected: after each stitch
// edge it assembles the graph again and searches it from node 0, then
// draws a node node 0 reaches and one it does not, in that order.
func stitchRebuild(g *Graph, r *rand.Rand) *Graph {
	if g.n == 0 {
		return g
	}
	var extra [][2]NodeID
	for {
		h := FromStream(&augmentedStream{g: g, extra: extra})
		res := BFS(h, 0)
		if res.Reached == h.n {
			return h
		}
		var reached, unreached []NodeID
		for v := 0; v < h.n; v++ {
			if res.Dist[v] >= 0 {
				reached = append(reached, NodeID(v))
			} else {
				unreached = append(unreached, NodeID(v))
			}
		}
		u := reached[r.Intn(len(reached))]
		extra = append(extra, [2]NodeID{u, unreached[r.Intn(len(unreached))]})
	}
}

// TestBuildConnectedSpliceMatchesRebuild pins the splice of stitch
// edges into the built CSR byte-identical to the full rebuild, on
// G(n,p) samples from far below to around the connectivity threshold.
func TestBuildConnectedSpliceMatchesRebuild(t *testing.T) {
	stitched := 0
	for seed := uint64(1); seed <= 6; seed++ {
		for _, n := range []int{2, 40, 300, 2000} {
			for _, c := range []float64{0, 0.5, 1, 3, 6} {
				s := StreamGNP(n, c/float64(n), seed)
				g := BuildConnected(s, seed)
				if g.M() != FromStream(s).M() {
					stitched++
				}
				sameGraph(t, g, buildConnectedRebuild(s, seed), fmt.Sprintf("%s seed %d", s.Name(), seed))
			}
		}
	}
	if stitched == 0 {
		t.Fatal("no sample needed stitching")
	}
}

// countingStream counts the runs of the stream it wraps.
type countingStream struct {
	EdgeStream
	runs *int
}

func (c countingStream) Edges(emit func(u, v NodeID)) {
	*c.runs++
	c.EdgeStream.Edges(emit)
}

// TestStreamRuns pins how often the assembly runs each generator:
// once for the source-monotone ones, also when BuildConnected has to
// stitch the sample, and twice for the stub-pairing regular sampler,
// whose emissions are in shuffled order.
func TestStreamRuns(t *testing.T) {
	for _, c := range []struct {
		s    EdgeStream
		runs int
	}{
		{StreamPath(500), 1},
		{StreamGrid(20, 30), 1},
		{StreamClusterChain(12, 9), 1},
		{StreamGNP(2000, 16.0/2000, 3), 1},
		{StreamGNP(2000, 1.0/2000, 3), 1}, // disconnected: stitched
		{StreamGNP(40, 1, 3), 1},
		{StreamRandomRegular(1000, 4, 3), 2},
	} {
		runs := 0
		g := BuildConnected(countingStream{c.s, &runs}, 9)
		if runs != c.runs {
			t.Errorf("%s: stream ran %d times, want %d", c.s.Name(), runs, c.runs)
		}
		if !IsConnected(g) {
			t.Errorf("%s: not connected", c.s.Name())
		}
	}
}

// orderBreakStream emits a path in ascending order, then, after
// emission at, an edge whose smaller endpoint goes back, then the
// rest of the path and a duplicate.
type orderBreakStream struct{ n, at int }

func (s orderBreakStream) N() int       { return s.n }
func (s orderBreakStream) Name() string { return fmt.Sprintf("break-%d-%d", s.n, s.at) }

func (s orderBreakStream) Edges(emit func(u, v NodeID)) {
	for v := 0; v+1 < s.n; v++ {
		if v == s.at {
			emit(NodeID(s.n-1), 1)
		}
		emit(NodeID(v), NodeID(v+1))
	}
	emit(2, 3)
}

// TestFromStreamOrderBreak covers the switch from keeping the upper
// endpoints to replaying the stream when the order breaks late.
func TestFromStreamOrderBreak(t *testing.T) {
	for _, at := range []int{0, 1, 4000, 9998} {
		s := orderBreakStream{n: 10000, at: at}
		runs := 0
		g := FromStream(countingStream{s, &runs})
		if runs != 2 {
			t.Errorf("%s: stream ran %d times, want 2", s.Name(), runs)
		}
		sameGraph(t, g, buildViaMaps(s), s.Name())
	}
}

// TestSweepMatchesBFS checks the bit-sweep Eccentricity and IsConnected
// against BFS on every stream generator and on random edge sequences.
func TestSweepMatchesBFS(t *testing.T) {
	graphs := []*Graph{
		FromStream(StreamPath(1)),
		FromStream(StreamPath(77)),
		FromStream(StreamGrid(9, 14)),
		FromStream(StreamClusterChain(7, 5)),
		FromStream(StreamGNP(150, 0.02, 4)),
		BuildConnected(StreamGNP(150, 0.005, 4), 4),
		FromStream(StreamRandomRegular(120, 3, 4)),
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed, 0x737770) // "swp"
		data := make([]byte, r.Intn(300))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		graphs = append(graphs, FromStream(fuzzStream{n: 1 + r.Intn(60), data: data}))
	}
	for _, g := range graphs {
		if got, want := IsConnected(g), BFS(g, 0).Reached == g.n; got != want {
			t.Fatalf("%s: IsConnected = %v, BFS says %v", g.Name(), got, want)
		}
		for v := 0; v < g.n; v++ {
			checkSweep(t, g, NodeID(v))
			res := BFS(g, NodeID(v))
			if res.Reached == g.n && Eccentricity(g, NodeID(v)) != int(res.MaxDist) {
				t.Fatalf("%s: Eccentricity(%d) != BFS MaxDist %d", g.Name(), v, res.MaxDist)
			}
		}
	}
}

// TestBuildConnectedStitches pins that BuildConnected yields one
// component without disturbing already-connected samples, and is
// deterministic in (stream, seed).
func TestBuildConnectedStitches(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		// p below the connectivity threshold: almost surely disconnected.
		g := BuildConnected(StreamGNP(300, 1.0/300, seed), seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := BFS(g, 0).Reached; got != g.N() {
			t.Fatalf("seed %d: reached %d of %d after stitching", seed, got, g.N())
		}
		g2 := BuildConnected(StreamGNP(300, 1.0/300, seed), seed)
		sameGraph(t, g2, g, fmt.Sprintf("restitch seed %d", seed))
	}
	// Already connected: the stitching pass must be the identity.
	g := BuildConnected(StreamPath(64), 1)
	sameGraph(t, g, Path(64), "connected passthrough")
}

// TestStreamReiteration pins the EdgeStream determinism requirement
// FromStream's replay path depends on: building twice from the same
// stream value yields byte-identical graphs.
func TestStreamReiteration(t *testing.T) {
	for _, s := range []EdgeStream{
		StreamGNP(200, 0.05, 3),
		StreamRandomRegular(100, 3, 3),
		StreamGrid(11, 13),
	} {
		sameGraph(t, FromStream(s), FromStream(s), s.Name())
	}
}

// TestFastSkipMatchesLog1p checks the guarded skip draw against the
// Log1p quotient it stands in for: wherever fastSkip accepts its own
// quotient, that quotient must truncate to the same skip and fall on
// the same side of the pair count. The uniforms are the sampler's own
// draws and, to reach the small f where 1-f rounds, the same draws
// scaled down by up to 2^-63.
func TestFastSkipMatchesLog1p(t *testing.T) {
	for i, p := range []float64{16.0 / 200000, 3.0 / 1000, 0.3, 0.5, 0.999} {
		logq := math.Log1p(-p)
		end := float64(int64(1000) * 999 / 2)
		r := rng.New(uint64(i), 0x736b70) // "skp"
		declined := 0
		for j := 0; j < 1<<20; j++ {
			f := r.Float64()
			if j&1 == 1 {
				f = math.Ldexp(f, -r.Intn(64))
			}
			q, ok := fastSkip(f, 1/logq, end)
			if !ok {
				declined++
				continue
			}
			ref := math.Log1p(-f) / logq
			if int64(q) != int64(ref) || (q >= end) != (ref >= end) {
				t.Fatalf("p=%g f=%v: fast skip %v, Log1p skip %v", p, f, q, ref)
			}
		}
		if declined > 1<<10 {
			t.Errorf("p=%g: fastSkip declined %d of %d draws", p, declined, 1<<20)
		}
	}
}

// TestFastSkipFallsBack crafts quotients on an integer: with p = 1/2,
// f = 1-2^-j gives ln(1-f)/ln(1-p) = j, and fastSkip must decline
// both when j is a skip and when j is the pair count.
func TestFastSkipFallsBack(t *testing.T) {
	inv := 1 / math.Log1p(-0.5)
	for j := 1; j <= 53; j++ {
		f := 1 - math.Ldexp(1, -j)
		if _, ok := fastSkip(f, inv, math.Inf(1)); ok {
			t.Errorf("j=%d: fastSkip accepted a quotient on the integer %d", j, j)
		}
		if _, ok := fastSkip(f, inv, float64(j)); ok {
			t.Errorf("j=%d: fastSkip accepted a quotient on the pair count %d", j, j)
		}
	}
}

// log1pGNP is the G(n, p) skip sampler with every skip drawn as
// Log1p(-F)/ln(1-p): the reference gnpStream's guarded draw must
// reproduce edge for edge.
type log1pGNP gnpStream

func (s log1pGNP) N() int       { return s.n }
func (s log1pGNP) Name() string { return gnpStream(s).Name() }

func (s log1pGNP) Edges(emit func(u, v NodeID)) {
	n := int64(s.n)
	total := n * (n - 1) / 2
	r := rng.New(s.seed, 0x6e7073) // "nps"
	logq := math.Log1p(-s.p)
	k, u, base := int64(-1), int64(0), int64(0)
	for {
		skipF := math.Log1p(-r.Float64()) / logq
		if skipF >= float64(total) {
			return
		}
		if k += 1 + int64(skipF); k >= total {
			return
		}
		for k >= base+(n-1-u) {
			base += n - 1 - u
			u++
		}
		emit(NodeID(u), NodeID(u+1+(k-base)))
	}
}

// TestGNPMatchesLog1pSampler pins StreamGNP's emissions, in order, to
// the Log1p-only sampler, from sparse to dense p.
func TestGNPMatchesLog1pSampler(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, c := range []struct {
			n int
			p float64
		}{{20000, 16.0 / 20000}, {3000, 0.01}, {400, 0.5}, {60, 0.97}} {
			var got, want [][2]NodeID
			StreamGNP(c.n, c.p, seed).Edges(func(u, v NodeID) { got = append(got, [2]NodeID{u, v}) })
			log1pGNP{n: c.n, p: c.p, seed: seed}.Edges(func(u, v NodeID) { want = append(want, [2]NodeID{u, v}) })
			if len(got) != len(want) {
				t.Fatalf("n=%d p=%g seed %d: %d edges, Log1p sampler %d", c.n, c.p, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%g seed %d: edge %d is %v, Log1p sampler %v", c.n, c.p, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// brokenStream emits the path 0-1-...-n-1 over and over. After `at`
// emissions it either panics (bad == false) or emits the out-of-range
// edge (0, n); with forever set it then keeps emitting, so only a
// stopped producer returns.
type brokenStream struct {
	n, at        int
	bad, forever bool
}

func (s brokenStream) N() int       { return s.n }
func (s brokenStream) Name() string { return "broken" }

func (s brokenStream) Edges(emit func(u, v NodeID)) {
	for i := 0; ; i++ {
		switch {
		case i == s.at && !s.bad:
			panic("broken stream")
		case i == s.at:
			emit(0, NodeID(s.n))
		case i > s.at && !s.forever:
			return
		default:
			emit(NodeID(i%(s.n-1)), NodeID(i%(s.n-1)+1))
		}
	}
}

// TestFromStreamFailures checks the pipeline's failure paths: a panic
// in the stream and an out-of-range emission each make FromStream
// panic on the calling goroutine with the stream's value or the range
// check's message, early, at a batch boundary and with every batch in
// flight, and leave no producer goroutine behind.
func TestFromStreamFailures(t *testing.T) {
	const n = 100
	b := batchSize(n)
	for _, at := range []int{0, 7, b / 2, b/2 - 1, 3 * b, 40 * b} {
		for _, s := range []brokenStream{
			{n: n, at: at},
			{n: n, at: at, bad: true},
			{n: n, at: at, bad: true, forever: true},
		} {
			want := any("broken stream")
			if s.bad {
				want = fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", 0, n, n)
			}
			before := runtime.NumGoroutine()
			if got := panicOf(func() { FromStream(s) }); got != want {
				t.Fatalf("%+v: FromStream panicked with %v, want %v", s, got, want)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%+v: %d goroutines after the panic, %d before", s, runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		}
	}
}

// TestBatchSize checks the pipeline's batch length: even, so a batch
// fills with whole emissions (an odd one would never read as full and
// would grow by append instead), between 256 and batchLen, and no
// longer than two NodeIDs per node beyond the 256 floor.
func TestBatchSize(t *testing.T) {
	for _, n := range []int{0, 1, 127, 1023, 22500, 22501, 32767, 100_001, 1 << 20} {
		b := batchSize(n)
		if b%2 != 0 || b < 256 || b > batchLen || b > max(2*n, 256) {
			t.Errorf("n=%d: batch length %d", n, b)
		}
	}
}

// panicOf runs f on the calling goroutine and returns what it panicked
// with (nil if it returned).
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}
