package radio_test

// Seq-vs-par byte-identity for the dense engine (the determinism
// satellite), on the shared radiotest substrate: the exact same run —
// rounds, every Stats counter, the final informed set, and every
// node's reception round — must come out byte-identical at every
// worker count, for every dense port in the catalog (Decay, CR, the
// collision wave, and the structured GST broadcast), on the ideal
// channel and under a stacked adversity model, with and without
// collision detection.

import (
	"fmt"
	"testing"

	"radiocast/internal/beep"
	"radiocast/internal/channel"
	"radiocast/internal/cr"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/radio/radiotest"
)

// adverseStack builds the erasure+jammer+faults stack used by the
// channel-adversity identity cases. A fresh stack per run: Jammer
// carries per-run budget state.
func adverseStack(n int, seed uint64) radio.Channel {
	return channel.Stack{
		channel.RandomFaults(n, 0, 0.1, 40, 0.05, 1<<16, seed),
		channel.NewErasure(0.1, seed),
		channel.NewJammer(25, 0.05, seed),
	}
}

// workerGraphs are the worker-identity workloads: a clique chain, a
// streamed grid, and an augmented-stream G(n,p).
func workerGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.ClusterChain(12, 16),
		graph.FromStream(graph.StreamGrid(17, 23)),
		graph.BuildConnected(graph.StreamGNP(400, 0.02, 7), 7),
	}
}

// recvState adapts the informed/recvRound pair every single-message
// port exposes into radiotest's one-int64 state (-2 = uninformed).
func recvState(informed func(graph.NodeID) bool, recv func(graph.NodeID) int64) func(graph.NodeID) int64 {
	return func(v graph.NodeID) int64 {
		if !informed(v) {
			return -2
		}
		return recv(v)
	}
}

// decayCase builds the worker-identity case for the dense Decay port.
func decayCase(g *graph.Graph, cd bool, mk func() radio.Channel) radiotest.DenseCase {
	return radiotest.DenseCase{
		Graph: g, CD: cd, MaxPacketBits: 64, Channel: mk,
		Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
			pr := decay.NewDense(g, 42, 0)
			return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
		},
	}
}

// TestDenseParallelByteIdentical is the core determinism property: for
// every workload x channel x CD combination, Workers ∈ {2, 4, 8} runs
// are byte-identical to the Workers = 1 run.
func TestDenseParallelByteIdentical(t *testing.T) {
	for _, g := range workerGraphs() {
		for _, cd := range []bool{false, true} {
			for _, adverse := range []bool{false, true} {
				var mk func() radio.Channel
				if adverse {
					mk = func() radio.Channel { return adverseStack(g.N(), 99) }
				}
				label := fmt.Sprintf("%s cd=%v adverse=%v", g.Name(), cd, adverse)
				base := radiotest.WorkerInvariant(t, label, decayCase(g, cd, mk), 2, 4, 8)
				if !adverse && !base.Completed {
					t.Fatalf("%s: ideal run did not complete", g.Name())
				}
			}
		}
	}
}

// TestDenseCRParallelByteIdentical extends the worker-count
// determinism property to the CR port.
func TestDenseCRParallelByteIdentical(t *testing.T) {
	for _, g := range workerGraphs() {
		p := cr.NewParams(g.N(), graph.Eccentricity(g, 0))
		for _, cd := range []bool{false, true} {
			for _, adverse := range []bool{false, true} {
				var mk func() radio.Channel
				if adverse {
					mk = func() radio.Channel { return adverseStack(g.N(), 99) }
				}
				c := radiotest.DenseCase{
					Graph: g, CD: cd, MaxPacketBits: 64, Channel: mk,
					Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
						pr := cr.NewDense(g, p, 42, 0)
						return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
					},
				}
				label := fmt.Sprintf("cr %s cd=%v adverse=%v", g.Name(), cd, adverse)
				base := radiotest.WorkerInvariant(t, label, c, 2, 4, 8)
				if !adverse && !base.Completed {
					t.Fatalf("%s: ideal CR run did not complete", g.Name())
				}
			}
		}
	}
}

// TestDenseWaveParallelByteIdentical extends the worker-count
// determinism property to the collision wave (CD always on — the
// wave's correctness assumption).
func TestDenseWaveParallelByteIdentical(t *testing.T) {
	for _, g := range workerGraphs() {
		ecc := int64(graph.Eccentricity(g, 0))
		for _, adverse := range []bool{false, true} {
			horizon := ecc
			var mk func() radio.Channel
			if adverse {
				horizon = 4*ecc + 64
				mk = func() radio.Channel { return adverseStack(g.N(), 99) }
			}
			c := radiotest.DenseCase{
				Graph: g, CD: true, MaxPacketBits: 8, Channel: mk, Limit: horizon,
				Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
					pr := beep.NewDenseWave(g, 0, horizon)
					return pr, pr.Done, func(v graph.NodeID) int64 { return int64(pr.Level(v)) }
				},
			}
			label := fmt.Sprintf("wave %s adverse=%v", g.Name(), adverse)
			base := radiotest.WorkerInvariant(t, label, c, 2, 4, 8)
			if !adverse && (!base.Completed || base.Rounds != ecc) {
				t.Fatalf("%s: ideal wave rounds/ok = %d/%v, want %d/true",
					g.Name(), base.Rounds, base.Completed, ecc)
			}
		}
	}
}

// TestDenseGSTParallelByteIdentical extends the worker-count
// determinism property to the structured GST broadcast: the fast-slot
// residue walk, the bucketed slow-slot draws, and the relay-bit
// arming/clearing must all reconstruct the sequential schedule at
// Workers ∈ {1, 2, 4, 8} — ideal and channel-adverse, CD on and off,
// noising on and off.
func TestDenseGSTParallelByteIdentical(t *testing.T) {
	for _, g := range workerGraphs() {
		f := gst.Flatten(gst.Construct(g, 0))
		s := mmv.NewSchedule(g.N())
		for _, cd := range []bool{false, true} {
			for _, adverse := range []bool{false, true} {
				for _, noising := range []bool{false, true} {
					var mk func() radio.Channel
					if adverse {
						mk = func() radio.Channel { return adverseStack(g.N(), 99) }
					}
					noising := noising
					c := radiotest.DenseCase{
						Graph: g, CD: cd, MaxPacketBits: 64, Channel: mk, Limit: 1 << 18,
						Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
							pr := mmv.NewDense(g, f, s, 42, 0, noising)
							return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
						},
					}
					label := fmt.Sprintf("gst %s cd=%v adverse=%v noising=%v", g.Name(), cd, adverse, noising)
					base := radiotest.WorkerInvariant(t, label, c, 2, 4, 8)
					if !adverse && !base.Completed {
						t.Fatalf("%s: ideal GST run did not complete", g.Name())
					}
				}
			}
		}
	}
}

// TestDenseDecayCompletes sanity-checks the protocol semantics on the
// ideal channel: every node gets informed, reception rounds are
// positive and bounded by the BFS structure only loosely (Decay is
// randomized), and the source never "receives".
func TestDenseDecayCompletes(t *testing.T) {
	g := graph.FromStream(graph.StreamClusterChain(10, 8))
	src := graph.NodeID(g.N() - 1)
	c := radiotest.DenseCase{
		Graph: g, MaxPacketBits: 64, Workers: 4,
		Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
			pr := decay.NewDense(g, 3, src)
			return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
		},
	}
	fp := c.Run()
	if !fp.Completed {
		t.Fatal("dense decay did not complete")
	}
	for v := 0; v < g.N(); v++ {
		switch {
		case fp.State[v] == -2:
			t.Fatalf("node %d uninformed at completion", v)
		case graph.NodeID(v) == src && fp.State[v] != -1:
			t.Fatalf("source recvRound = %d, want -1", fp.State[v])
		case graph.NodeID(v) != src && fp.State[v] < 0:
			t.Fatalf("node %d informed but recvRound = %d", v, fp.State[v])
		}
	}
	if fp.Stats.Deliveries < int64(g.N()-1) {
		t.Fatalf("deliveries %d < n-1 = %d", fp.Stats.Deliveries, g.N()-1)
	}
}

// TestDenseDecaySeedSensitivity guards against the keyed draws
// collapsing (e.g. ignoring the round or node): different seeds must
// produce different schedules on a workload with real contention.
func TestDenseDecaySeedSensitivity(t *testing.T) {
	g := graph.ClusterChain(8, 8)
	run := func(seed uint64) radiotest.Fingerprint {
		return radiotest.DenseCase{
			Graph: g, MaxPacketBits: 64,
			Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
				pr := decay.NewDense(g, seed, 0)
				return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
			},
		}.Run()
	}
	a, b := run(1), run(2)
	if a.Rounds == b.Rounds && a.Stats == b.Stats {
		t.Fatal("seeds 1 and 2 produced identical runs; keyed draws look degenerate")
	}
}

// TestDenseReclosable pins that Close is idempotent and that a
// never-parallel engine closes cleanly.
func TestDenseReclosable(t *testing.T) {
	g := graph.Path(64)
	pr := decay.NewDense(g, 1, 0)
	eng := radio.NewDense(g, radio.Config{Workers: 4}, pr)
	eng.RunUntil(1<<16, pr.Done)
	eng.Close()
	eng.Close()

	pr2 := decay.NewDense(g, 1, 0)
	eng2 := radio.NewDense(g, radio.Config{}, pr2)
	eng2.RunUntil(1<<16, pr2.Done)
	eng2.Close()
}

// TestDenseTrailingPartitionDropped: 300 nodes fill 5 words, which 4
// workers split 2+2+1+0. The empty fourth partition used to get the
// unaligned node range [300, 300), and a protocol scanning from word
// 300/64 reported nodes below it. NewDense now drops partitions that
// would own no word.
func TestDenseTrailingPartitionDropped(t *testing.T) {
	g := graph.FromStream(graph.StreamGrid(15, 20))
	base := radiotest.WorkerInvariant(t, "grid15x20", decayCase(g, false, nil), 4, 5)
	if !base.Completed {
		t.Fatal("grid15x20: run did not complete")
	}
}
