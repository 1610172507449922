package radio_test

// Twin tests for the topology-swap half of the reuse contract: a run
// on a Reset + Retopo'd engine must be byte-identical to a run on an
// engine freshly constructed over the new graph — same rounds, same
// stats, same per-node state — on both engines, at every dense worker
// count. Retopo swaps only the CSR; everything else (scratch, stamps,
// worker pool) is the reused allocation, which is exactly what the
// identity proves safe.

import (
	"fmt"
	"testing"

	"radiocast/internal/beep"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// retopoGraphs returns same-n graph pairs (swap source, swap target):
// a grid into a G(n,p), a cluster chain into itself (the pure
// Reset-reuse degenerate case), and a G(n,p) into a cluster chain.
func retopoGraphs() [][2]*graph.Graph {
	grid := graph.Grid(5, 5)
	gnp25 := graph.BuildConnected(graph.StreamGNP(25, 0.15, 3), 3)
	chain := graph.ClusterChain(12, 8)
	gnp96 := graph.BuildConnected(graph.StreamGNP(96, 0.08, 5), 5)
	return [][2]*graph.Graph{
		{grid, gnp25},
		{chain, chain},
		{gnp96, chain},
	}
}

// runSparseDecay drives one seeded decay broadcast on nw (which must
// be freshly constructed or Reset) and returns the per-node informed
// flags and engine stats.
func runSparseDecay(nw *radio.Network, n int, seed uint64, limit int64) (int64, []bool, radio.Stats) {
	protos := make([]*decay.Broadcast, n)
	var ds radio.DoneSet
	ds.Reset(n)
	for v := 0; v < n; v++ {
		protos[v] = decay.NewBroadcast(decay.PlainSchedule(n), v == 0, decay.Message{Data: 1}, rng.New())
		rng.Reseed(protos[v].Rng(), seed, 0xd0, uint64(v))
		protos[v].DoneSet = &ds
		nw.SetProtocol(radio.NodeID(v), protos[v])
	}
	ds.Tick() // the source starts informed
	rounds, _ := nw.RunUntil(limit, ds.Done)
	informed := make([]bool, n)
	for v, p := range protos {
		informed[v] = p.Has()
	}
	return rounds, informed, nw.Stats()
}

// TestNetworkRetopoMatchesFresh is the sparse half: run on g1, Reset,
// Retopo to g2, run again — byte-identical to a fresh network on g2,
// for both the deterministic collision wave and the randomized decay
// broadcast.
func TestNetworkRetopoMatchesFresh(t *testing.T) {
	for _, pair := range retopoGraphs() {
		g1, g2 := pair[0], pair[1]
		n := g1.N()
		label := fmt.Sprintf("%s->%s", g1.Name(), g2.Name())
		horizon := int64(n)

		// Collision wave (deterministic).
		fresh := radio.New(g2, radio.Config{CollisionDetection: true})
		wantLevels := beep.RunLayering(fresh, 0, horizon)
		wantStats := fresh.Stats()

		nw := radio.New(g1, radio.Config{CollisionDetection: true})
		beep.RunLayering(nw, 0, horizon)
		nw.Reset()
		off, edges := g2.CSR()
		nw.Retopo(off, edges)
		gotLevels := beep.RunLayering(nw, 0, horizon)
		if nw.Stats() != wantStats {
			t.Fatalf("%s wave: swapped stats %+v, fresh %+v", label, nw.Stats(), wantStats)
		}
		for v := range wantLevels {
			if gotLevels[v] != wantLevels[v] {
				t.Fatalf("%s wave: node %d level %d after swap, fresh %d", label, v, gotLevels[v], wantLevels[v])
			}
		}

		// Decay (randomized — the swap must preserve RNG alignment too).
		fresh2 := radio.New(g2, radio.Config{})
		wr, wi, ws := runSparseDecay(fresh2, n, 77, 1<<20)

		nw2 := radio.New(g1, radio.Config{})
		runSparseDecay(nw2, n, 13, 1<<20)
		nw2.Reset()
		nw2.Retopo(off, edges)
		gr, gi, gs := runSparseDecay(nw2, n, 77, 1<<20)
		if gr != wr || gs != ws {
			t.Fatalf("%s decay: swapped rounds/stats %d/%+v, fresh %d/%+v", label, gr, gs, wr, ws)
		}
		for v := range wi {
			if gi[v] != wi[v] {
				t.Fatalf("%s decay: node %d informed=%v after swap, fresh %v", label, v, gi[v], wi[v])
			}
		}
	}
}

// TestNetworkRetopoMidRun pins that a swap is legal mid-run and takes
// effect immediately: on an edgeless topology a transmission reaches
// nobody; after Retopo to a path the very next round delivers.
func TestNetworkRetopoMidRun(t *testing.T) {
	empty := graph.FromStream(emptyStream{n: 2})
	path := graph.Path(2)
	nw := radio.New(empty, radio.Config{})
	protos := [2]*decay.Broadcast{}
	for v := 0; v < 2; v++ {
		protos[v] = decay.NewBroadcast(decay.PlainSchedule(2), v == 0, decay.Message{Data: 1}, rng.New(1, uint64(v)))
		nw.SetProtocol(radio.NodeID(v), protos[v])
	}
	nw.Run(64)
	if protos[1].Has() {
		t.Fatal("message crossed an edgeless topology")
	}
	off, edges := path.CSR()
	nw.Retopo(off, edges)
	nw.RunUntil(1<<16, protos[1].Has)
	if !protos[1].Has() {
		t.Fatal("message never crossed after mid-run Retopo to a path")
	}
}

type emptyStream struct{ n int }

func (s emptyStream) N() int                        { return s.n }
func (s emptyStream) Name() string                  { return fmt.Sprintf("empty(%d)", s.n) }
func (s emptyStream) Edges(func(u, v graph.NodeID)) {}

// TestDenseRetopoMatchesFresh is the dense half: construct on g1, run,
// Reset with a fresh protocol, Retopo to g2, run — byte-identical to
// a freshly constructed engine on g2, at Workers ∈ {1, 2, 4, 8}
// (including stats: same protocol, same graph, so even traffic
// counters must agree).
func TestDenseRetopoMatchesFresh(t *testing.T) {
	for _, pair := range retopoGraphs() {
		g1, g2 := pair[0], pair[1]
		for _, workers := range []int{1, 2, 4, 8} {
			label := fmt.Sprintf("%s->%s workers=%d", g1.Name(), g2.Name(), workers)
			cfg := radio.Config{MaxPacketBits: 64, Workers: workers}

			prFresh := decay.NewDense(g2, 42, 0)
			engFresh := radio.NewDense(g2, cfg, prFresh)
			wantRounds, wantOK := engFresh.RunUntil(1<<20, prFresh.Done)
			wantStats := engFresh.Stats()
			engFresh.Close()

			pr1 := decay.NewDense(g1, 9, 0)
			eng := radio.NewDense(g1, cfg, pr1)
			eng.RunUntil(1<<20, pr1.Done)
			pr2 := decay.NewDense(g2, 42, 0)
			eng.Reset(pr2)
			off, edges := g2.CSR()
			eng.Retopo(off, edges)
			gotRounds, gotOK := eng.RunUntil(1<<20, pr2.Done)
			gotStats := eng.Stats()
			eng.Close()

			if gotRounds != wantRounds || gotOK != wantOK || gotStats != wantStats {
				t.Fatalf("%s: swapped %d/%v/%+v, fresh %d/%v/%+v",
					label, gotRounds, gotOK, gotStats, wantRounds, wantOK, wantStats)
			}
			for v := 0; v < g2.N(); v++ {
				id := graph.NodeID(v)
				if pr2.Informed(id) != prFresh.Informed(id) || pr2.RecvRound(id) != prFresh.RecvRound(id) {
					t.Fatalf("%s: node %d state (%v, %d) after swap, fresh (%v, %d)", label, v,
						pr2.Informed(id), pr2.RecvRound(id), prFresh.Informed(id), prFresh.RecvRound(id))
				}
			}
		}
	}
}

// TestRetopoRejectsResize pins the same-n guard on both engines: the
// per-node scratch is only valid at an unchanged node count.
func TestRetopoRejectsResize(t *testing.T) {
	small := graph.Path(4)
	big := graph.Path(5)
	off, edges := big.CSR()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("Network.Retopo accepted a different node count")
			}
		}()
		radio.New(small, radio.Config{}).Retopo(off, edges)
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("Dense.Retopo accepted a different node count")
			}
		}()
		pr := decay.NewDense(small, 1, 0)
		eng := radio.NewDense(small, radio.Config{}, pr)
		defer eng.Close()
		eng.Retopo(off, edges)
	}()
}
