package harness

// Source-plumbing tests: every runner must broadcast from the source
// its constructor was given, not from node 0. Two complementary
// checks:
//
//   - Wave origin: in the synchronous radio model information travels
//     at most one hop per round, so after L rounds the informed set is
//     contained in the radius-L ball around the true origin. Running
//     with a small limit on a long path and inspecting the informed
//     set therefore pins down where the wave started.
//   - Completion: with Source at the far end of an asymmetric graph,
//     every protocol still informs all nodes within its schedule.

import (
	"testing"

	"radiocast/internal/adapt"
	"radiocast/internal/channel"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
)

// informedSet runs one of the reusable stacks for at most limit rounds
// and harvests the informed set via the runner's mark.
type marker interface {
	mark(dst []bool)
}

// checkWaveOrigin asserts that after a limit-capped run on g the
// informed set sits inside the radius-rounds ball around src — and
// that src itself is informed.
func checkWaveOrigin(t *testing.T, label string, g *graph.Graph, src graph.NodeID, rounds int64, m marker) {
	t.Helper()
	informed := make([]bool, g.N())
	m.mark(informed)
	if !informed[src] {
		t.Fatalf("%s: source %d not informed after its own run", label, src)
	}
	dist := graph.BFS(g, src).Dist
	for v, in := range informed {
		if in && int64(dist[v]) > rounds {
			t.Fatalf("%s: node %d (distance %d from source %d) informed after only %d rounds — wave did not originate at the source",
				label, v, dist[v], src, rounds)
		}
	}
}

// TestDecaySourceWaveOrigin pins the Decay wave to the configured
// source on a long path: nodes far from it must still be uninformed
// after a handful of rounds, and a node-0 origin would be caught
// immediately.
func TestDecaySourceWaveOrigin(t *testing.T) {
	g := graph.Path(201)
	src := graph.NodeID(100)
	r := mustProtocol("decay").Build(g, src, StackOpts{}).(carrier)
	const limit = 12
	if _, ok, _ := r.RunFrom(nil, nil, 1, limit); ok {
		t.Fatal("path-201 decay completed in 12 rounds; limit too loose")
	}
	checkWaveOrigin(t, "decay", g, src, limit, r)
}

// TestCRSourceWaveOrigin is the same pin for the CR baseline.
func TestCRSourceWaveOrigin(t *testing.T) {
	g := graph.Path(201)
	src := graph.NodeID(100)
	r := mustProtocol("cr").Build(g, src, StackOpts{}).(carrier)
	const limit = 12
	if _, ok, _ := r.RunFrom(nil, nil, 1, limit); ok {
		t.Fatal("path-201 CR completed in 12 rounds; limit too loose")
	}
	checkWaveOrigin(t, "cr", g, src, limit, r)
}

// TestGSTSingleSourceWaveOrigin pins the known-topology GST broadcast:
// the tree is rooted at the source and the message starts there.
func TestGSTSingleSourceWaveOrigin(t *testing.T) {
	g := graph.Path(129)
	src := graph.NodeID(64)
	r := NewGSTSingleRun(g, false, src)
	const limit = 10
	if _, ok, _ := r.RunFrom(nil, nil, 1, limit); ok {
		t.Fatal("path-129 GST single completed in 10 rounds; limit too loose")
	}
	checkWaveOrigin(t, "gst-single", g, src, limit, r)
}

// TestTheorem11SourceWaveOrigin pins the full Theorem 1.1 pipeline.
func TestTheorem11SourceWaveOrigin(t *testing.T) {
	g := graph.Path(129)
	src := graph.NodeID(64)
	r := mustProtocol("cd").Build(g, src, StackOpts{})
	const limit = 10
	if _, ok, _ := r.RunFrom(nil, nil, 1, limit); ok {
		t.Fatal("path-129 theorem 1.1 completed in 10 rounds; limit too loose")
	}
	checkWaveOrigin(t, "th11", g, src, limit, r.(marker))
}

// TestTheorem13SourceWaveOrigin pins the Theorem 1.3 pipeline (k = 2
// messages, decode-complete as "informed").
func TestTheorem13SourceWaveOrigin(t *testing.T) {
	g := graph.Path(65)
	src := graph.NodeID(32)
	r := mustProtocol("k-cd").Build(g, src, StackOpts{K: 2})
	const limit = 10
	if _, ok, _ := r.RunFrom(nil, nil, 1, limit); ok {
		t.Fatal("path-65 theorem 1.3 completed in 10 rounds; limit too loose")
	}
	checkWaveOrigin(t, "th13", g, src, limit, r.(marker))
}

// TestSourceCompletionMatrix runs every protocol from a far-end source
// on an asymmetric workload and requires full completion. The
// lollipop's tail end is the worst-placed source: the wave must cross
// the whole tail before flooding the clique.
func TestSourceCompletionMatrix(t *testing.T) {
	g := graph.Lollipop(12, 20)
	src := graph.NodeID(g.N() - 1) // far tail end
	const limit = 1 << 20

	if _, ok, _ := mustProtocol("decay").Build(g, src, StackOpts{}).RunFrom(nil, nil, 7, limit); !ok {
		t.Error("decay from tail-end source did not complete")
	}
	if _, ok, _ := mustProtocol("cr").Build(g, src, StackOpts{}).RunFrom(nil, nil, 7, limit); !ok {
		t.Error("cr from tail-end source did not complete")
	}
	if _, ok, _ := NewGSTSingleRun(g, false, src).RunFrom(nil, nil, 7, limit); !ok {
		t.Error("gst-single from tail-end source did not complete")
	}
	if _, ok, _ := mustProtocol("cd").Build(g, src, StackOpts{}).RunFrom(nil, nil, 7, 0); !ok {
		t.Error("theorem 1.1 from tail-end source did not complete")
	}
	if _, ok, _ := NewGSTMultiRun(g, 3, src).RunFrom(nil, nil, 7, limit); !ok {
		t.Error("gst-multi from tail-end source did not complete (decode verified)")
	}
	if rounds, ok, _ := mustProtocol("k-cd").Build(g, src, StackOpts{K: 2}).RunFrom(nil, nil, 7, 0); !ok {
		t.Errorf("theorem 1.3 from tail-end source did not complete (rounds=%d)", rounds)
	}
}

// TestAdaptiveSource pins the retry layer: adaptive runs carry the
// constructor's source into epoch 0, and re-layering epochs under loss
// still finish a tail-end broadcast. Epoch 0 of the ideal run must
// respect the one-hop-per-round ball around the source like every
// other runner.
func TestAdaptiveSource(t *testing.T) {
	g := graph.Lollipop(12, 20)
	src := graph.NodeID(g.N() - 1)
	chf := func(int, int64) radio.Channel { return nil }

	a := mustProtocol("decay").NewAdaptive(g, src, StackOpts{}, chf, 7)
	out := adapt.Run(a, adapt.Policy{})
	if !out.Completed {
		t.Fatal("adaptive decay from tail-end source did not complete")
	}

	lossy := EpochChannel(channel.NewErasure(0.3, 11))
	for _, name := range []string{"decay", "cr", "gst"} {
		if out := adapt.Run(mustProtocol(name).NewAdaptive(g, src, StackOpts{}, lossy, 7), adapt.Policy{}); !out.Completed {
			t.Fatal("adaptive run from tail-end source under 30% loss did not complete")
		}
	}
}

// TestGSTMultiSourcePayloads pins that the k messages really originate
// at the configured source: with a limit too small for the wave to
// reach the far end, nodes outside the ball cannot decode.
func TestGSTMultiSourcePayloads(t *testing.T) {
	g := graph.Path(129)
	src := graph.NodeID(64)
	r := NewGSTMultiRun(g, 2, src)
	const limit = 10
	if _, ok, _ := r.RunFrom(nil, nil, 1, limit); ok {
		t.Fatal("path-129 gst-multi completed in 10 rounds; limit too loose")
	}
	dist := graph.BFS(g, src).Dist
	for v, c := range r.contents {
		if c.Done() && int64(dist[v]) > limit {
			t.Fatalf("node %d (distance %d) decoded all messages after %d rounds", v, dist[v], limit)
		}
	}
}
