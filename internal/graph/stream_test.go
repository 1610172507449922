package graph

import (
	"fmt"
	"testing"

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

// buildViaBuilder feeds a stream's emissions through the legacy Builder
// — the reference semantics FromStream must reproduce.
func buildViaBuilder(s EdgeStream) *Graph {
	b := NewBuilder(s.N())
	b.SetName(s.Name())
	s.Edges(func(u, v NodeID) { b.AddEdge(u, v) })
	return b.Build()
}

// TestStreamMatchesLegacyGenerators pins that the deterministic
// generators, which build through FromStream, are byte-identical to
// feeding their streams through the Builder, including names — the
// Builder stays the independent reference for the streamed assembly.
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
		sameGraph(t, c.gen, buildViaBuilder(c.stream), c.gen.Name())
	}
}

// randomStream emits a fixed pseudo-random edge sequence that includes
// self-loops and duplicates — the adversarial input for the assembly
// path (Builder drops both; FromStream must match).
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
// emission sequence through the legacy Builder.
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
		sameGraph(t, FromStream(s), buildViaBuilder(s), s.Name())
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
// FromStream's two-pass assembly depends on: building twice from the
// same stream value yields byte-identical graphs.
func TestStreamReiteration(t *testing.T) {
	for _, s := range []EdgeStream{
		StreamGNP(200, 0.05, 3),
		StreamRandomRegular(100, 3, 3),
		StreamGrid(11, 13),
	} {
		sameGraph(t, FromStream(s), FromStream(s), s.Name())
	}
}
