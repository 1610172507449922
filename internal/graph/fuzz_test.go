package graph

// Native fuzz targets for the streaming-CSR contract: FromStream must
// be byte-identical to the legacy Builder on ARBITRARY edge sequences
// (duplicates, self-loops, skewed degree sequences — whatever the
// fuzzer invents), and BuildConnected must always hand back a valid,
// connected, deterministically reproducible graph. The corpus seeds
// cover the interesting shapes (empty, single-edge, dense duplicate
// blocks); the fuzzer mutates from there.

import (
	"cmp"
	"slices"
	"testing"
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

// FuzzFromStream: streamed CSR assembly vs the Builder twin on the
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
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw)%200 + 1
		s := fuzzStream{n: n, data: data}
		got := FromStream(s)
		if err := got.Validate(); err != nil {
			t.Fatalf("FromStream produced invalid graph: %v", err)
		}
		sameGraph(t, got, buildViaBuilder(s), "fuzz stream")
		// The canonical form of the same input is source-monotone, so
		// it is assembled from one run of the stream.
		c := canonicalStream{n: n, data: data}
		runs := 0
		got = FromStream(countingStream{c, &runs})
		if runs != 1 {
			t.Fatalf("canonical stream ran %d times, want 1", runs)
		}
		sameGraph(t, got, buildViaBuilder(c), "canonical fuzz stream")
	})
}

// FuzzBuildConnected: the stitched graph must validate, be connected,
// contain the sampled edges, rebuild byte-identically from the same
// (stream, seed) pair, and equal the reference full rebuild.
func FuzzBuildConnected(f *testing.F) {
	f.Add(uint8(1), uint64(0), []byte{})
	f.Add(uint8(50), uint64(7), []byte{})           // all-isolated: n-1 stitch edges
	f.Add(uint8(10), uint64(3), []byte{0, 1, 2, 3}) // two islands + isolated rest
	f.Add(uint8(90), uint64(9), []byte{9, 8, 7, 6}) // stitch order vs component order
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
	})
}
