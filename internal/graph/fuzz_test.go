package graph

// Native fuzz targets for the streaming-CSR contract: FromStream must
// be byte-identical to the map-based reference assembly on ARBITRARY
// edge sequences
// (duplicates, self-loops, skewed degree sequences — whatever the
// fuzzer invents), and BuildConnected and StitchConnected must always
// hand back a valid, connected, deterministically reproducible graph. The corpus seeds
// cover the interesting shapes (empty, single-edge, dense duplicate
// blocks); the fuzzer mutates from there.

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"radiocast/internal/rng"
)

// fuzzStream decodes an arbitrary byte string into an edge stream on n
// nodes: consecutive byte pairs are an edge (u, v) = (data[i] mod n,
// data[i+1] mod n). Deterministic and re-iterable, as EdgeStream
// requires; self-loops and duplicates are legal stream emissions.
type fuzzStream struct {
	n    int
	data []byte
}

func (s fuzzStream) N() int       { return s.n }
func (s fuzzStream) Name() string { return "fuzz" }

func (s fuzzStream) Edges(emit func(u, v NodeID)) {
	for i := 0; i+1 < len(s.data); i += 2 {
		emit(NodeID(int(s.data[i])%s.n), NodeID(int(s.data[i+1])%s.n))
	}
}

// canonicalStream emits fuzzStream's pairs as (min, max), sorted,
// duplicates and self-loops kept.
type canonicalStream fuzzStream

func (s canonicalStream) N() int       { return s.n }
func (s canonicalStream) Name() string { return "fuzz" }

func (s canonicalStream) Edges(emit func(u, v NodeID)) {
	var pairs [][2]NodeID
	fuzzStream(s).Edges(func(u, v NodeID) {
		pairs = append(pairs, [2]NodeID{min(u, v), max(u, v)})
	})
	slices.SortFunc(pairs, func(a, b [2]NodeID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, p := range pairs {
		emit(p[0], p[1])
	}
}

// FuzzFromStream: streamed CSR assembly vs the map-based reference on the
// same emission sequence — offsets, edges, and name must match
// byte-for-byte, and the result must pass structural validation. Each
// input is fed raw (usually the replay path) and in canonical form
// (the one-run path).
func FuzzFromStream(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(2), []byte{0, 1})
	f.Add(uint8(5), []byte{0, 0, 1, 1, 2, 2}) // self-loops only
	f.Add(uint8(7), []byte{0, 1, 0, 1, 1, 0, 3, 4, 4, 3, 3, 4})
	f.Add(uint8(200), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(9), []byte{0, 8, 1, 8, 0, 8, 7, 2, 3, 2, 8, 6, 0}) // duplicates
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%200 + 1
		s := fuzzStream{n: n, data: data}
		got := FromStream(s)
		if err := got.Validate(); err != nil {
			t.Fatalf("FromStream produced invalid graph: %v", err)
		}
		sameGraph(t, got, buildViaMaps(s), "fuzz stream")
		// The canonical form of the same input is source-monotone, so
		// it is assembled from one run of the stream.
		c := canonicalStream{n: n, data: data}
		runs := 0
		got = FromStream(countingStream{c, &runs})
		if runs != 1 {
			t.Fatalf("canonical stream ran %d times, want 1", runs)
		}
		sameGraph(t, got, buildViaMaps(c), "canonical fuzz stream")
	})
}

// FuzzBuildConnected: the stitched graph must validate, be connected,
// contain the sampled edges, rebuild byte-identically from the same
// (stream, seed) pair, and equal the reference full rebuild; node 0's
// eccentricity must be BFS's. StitchConnected on the same sample, with
// a generator keyed by the same seed, must equal stitchRebuild, which
// assembles and searches the graph again after every stitch edge.
func FuzzBuildConnected(f *testing.F) {
	f.Add(uint8(1), uint64(0), []byte{})
	f.Add(uint8(50), uint64(7), []byte{})                           // all-isolated: n-1 stitch edges
	f.Add(uint8(10), uint64(3), []byte{0, 1, 2, 3})                 // two islands + isolated rest
	f.Add(uint8(90), uint64(9), []byte{9, 8, 7, 6})                 // stitch order vs component order
	f.Add(uint8(2), uint64(5), []byte{0, 1, 1, 2, 2, 0, 1})         // connected: node 0's kept eccentricity
	f.Add(uint8(12), uint64(4), []byte{5, 1, 1, 5, 2, 3, 3, 2, 11}) // stitched, duplicates
	f.Fuzz(func(t *testing.T, nRaw uint8, seed uint64, data []byte) {
		n := int(nRaw)%120 + 1
		s := fuzzStream{n: n, data: data}
		g := BuildConnected(s, seed)
		if err := g.Validate(); err != nil {
			t.Fatalf("BuildConnected produced invalid graph: %v", err)
		}
		if !IsConnected(g) {
			t.Fatalf("BuildConnected produced a disconnected graph (n=%d)", n)
		}
		// Every sampled (non-loop) edge must survive stitching.
		s.Edges(func(u, v NodeID) {
			if u != v && !g.HasEdge(u, v) {
				t.Fatalf("sampled edge (%d,%d) missing from stitched graph", u, v)
			}
		})
		sameGraph(t, BuildConnected(s, seed), g, "rebuild")
		sameGraph(t, g, buildConnectedRebuild(s, seed), "splice vs full rebuild")
		if ecc, want := Eccentricity(g, 0), BFS(g, 0).MaxDist; ecc != int(want) {
			t.Fatalf("Eccentricity(g, 0) = %d, BFS says %d", ecc, want)
		}
		st := StitchConnected(FromStream(s), rng.New(seed))
		sameGraph(t, st, stitchRebuild(FromStream(s), rng.New(seed)), "stitch vs rebuild and search")
	})
}

// sweepStream is FuzzSweepTwin's graph on core+tail+extra nodes: a
// G(core, p) sample on the first core nodes, a path of tail nodes hung
// from node core-1, and the pairs of data read as fuzzStream reads
// them. Nodes that neither the sample, the path nor the pairs reach
// stay isolated.
type sweepStream struct {
	core, tail, extra int
	p                 float64
	seed              uint64
	data              []byte
}

func (s sweepStream) N() int       { return s.core + s.tail + s.extra }
func (s sweepStream) Name() string { return "sweep" }

func (s sweepStream) Edges(emit func(u, v NodeID)) {
	StreamGNP(s.core, s.p, s.seed).Edges(emit)
	for v := s.core; v < s.core+s.tail; v++ {
		emit(NodeID(v-1), NodeID(v))
	}
	fuzzStream{n: s.N(), data: s.data}.Edges(emit)
}

// sweepSeeds are FuzzSweepTwin's corpus: a dense sample that the sweep
// finishes bottom-up, the same with a long tail that turns it top-down
// again, a star entered from a leaf, a sparse sample with a separate
// island, and a search from the end of a tail.
var sweepSeeds = []struct {
	s   sweepStream
	src int
}{
	{sweepStream{core: 200, p: 128.0 / 255, seed: 1}, 0},
	{sweepStream{core: 120, tail: 60, p: 128.0 / 255, seed: 2}, 3},
	{sweepStream{core: 1, extra: 80, data: starData(80)}, 7},
	{sweepStream{core: 150, extra: 40, p: 5.0 / 255, seed: 4, data: []byte{160, 170, 170, 180, 151, 189}}, 5},
	{sweepStream{core: 60, tail: 40, p: 77.0 / 255, seed: 5}, 99},
}

// starData pairs node 0 with each of the nodes 1..k.
func starData(k int) []byte {
	var d []byte
	for v := 1; v <= k; v++ {
		d = append(d, 0, byte(v))
	}
	return d
}

// FuzzSweepTwin: the direction-optimizing sweep from a fuzzer-chosen
// source must reach exactly the nodes BFS reaches (count and set) and
// report BFS's largest distance as its depth, on sparse, dense,
// star-shaped and disconnected graphs.
func FuzzSweepTwin(f *testing.F) {
	for _, c := range sweepSeeds {
		s := c.s
		f.Add(uint8(s.core-1), uint8(math.Round(s.p*255)), uint8(s.tail), uint8(s.extra), uint16(c.src), s.seed, s.data)
	}
	f.Fuzz(func(t *testing.T, coreRaw, pRaw, tailRaw, extraRaw uint8, srcRaw uint16, seed uint64, data []byte) {
		s := sweepStream{
			core: int(coreRaw)%200 + 1, tail: int(tailRaw) % 100, extra: int(extraRaw) % 100,
			p: float64(pRaw) / 255, seed: seed, data: data,
		}
		g := FromStream(s)
		checkSweep(t, g, NodeID(int(srcRaw)%g.N()))
	})
}

// checkSweep compares sweep from src with BFS.
func checkSweep(t *testing.T, g *Graph, src NodeID) {
	t.Helper()
	res := BFS(g, src)
	seen, count, depth := sweep(g, src)
	if count != res.Reached || depth != int(res.MaxDist) {
		t.Fatalf("%s: sweep from %d reached %d at depth %d, BFS %d at %d", g.Name(), src, count, depth, res.Reached, res.MaxDist)
	}
	if len(seen) != (g.N()+63)/64 {
		t.Fatalf("sweep set has %d words for %d nodes", len(seen), g.N())
	}
	for i, w := range seen {
		for b := 0; b < 64; b++ {
			v := i<<6 | b
			if in := w&(1<<b) != 0; in != (v < g.N() && res.Dist[v] >= 0) {
				t.Fatalf("sweep from %d: node %d in set = %v, BFS distance %d", src, v, in, res.Dist[min(v, g.N()-1)])
			}
		}
	}
}

// TestSweepSeedsSwitchDirection replays sweepBottomUp over the BFS
// levels of each FuzzSweepTwin seed, as sweep calls it, and checks
// that the corpus turns the sweep bottom-up and back top-down.
func TestSweepSeedsSwitchDirection(t *testing.T) {
	toUp, toDown := 0, 0
	for _, c := range sweepSeeds {
		g := FromStream(c.s)
		checkSweep(t, g, NodeID(c.src))
		res := BFS(g, NodeID(c.src))
		levels := make([][]NodeID, res.MaxDist+2) // the last one is empty
		for v, d := range res.Dist {
			if d >= 0 {
				levels[d] = append(levels[d], NodeID(v))
			}
		}
		unexplored := int64(2 * g.M())
		up, prev := false, 0
		for _, level := range levels {
			edges := int64(0)
			for _, v := range level {
				edges += int64(g.Degree(v))
			}
			unexplored -= edges
			next := sweepBottomUp(up, edges, unexplored, len(level), prev, g.N())
			if next && !up {
				toUp++
			}
			if up && !next {
				toDown++
			}
			up, prev = next, len(level)
		}
	}
	if toUp == 0 || toDown == 0 {
		t.Fatalf("the seeds turn the sweep bottom-up %d times and top-down %d times", toUp, toDown)
	}
}
