package mmv_test

// Dense-vs-sparse twin identity for the SoA GST broadcast. The dense
// port's keyed slow-slot draws make runs incomparable with the
// rand.Rand-driven Protocol, so the twin is a sparse radio.Protocol
// replaying the IDENTICAL schedule — same FastSlot residues, same
// relay-arming rule, same Mix(key, node, round) slow coins, drawn
// through the variadic rng.Mix rather than Dense's rng.Prefix — on the
// per-node engine. Frontier pruning aside (which provably cannot
// change per-node dynamics, see dense.go), the two engines must then
// produce the same broadcast: same reception round for every node.
// Checked on the ideal channel and under per-link erasure (drops are
// keyed by (round, link) and agree across engines), CD on and off,
// noising on and off.

import (
	"fmt"
	"testing"

	"radiocast/internal/channel"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/radio/radiotest"
	"radiocast/internal/rng"
)

// keyedTwin is the sparse twin: mmv.Protocol's exact Act/Observe
// logic with the dense engine's keyed coins in place of rand.Rand.
type keyedTwin struct {
	s       mmv.Schedule
	f       *gst.Flat
	key     uint64
	id      graph.NodeID
	noising bool

	has   bool
	pkt   radio.Packet
	recv  int64
	relay radio.Packet
}

var _ radio.Protocol = (*keyedTwin)(nil)

func (p *keyedTwin) Act(t int64) radio.Action {
	f, v := p.f, p.id
	if f.Level[v] < 0 || f.Vdist[v] < 0 {
		return radio.Listen // not part of the structure
	}
	if t%2 == 0 {
		if !p.s.FastSlot(t, f.Level[v], f.Rank[v]) || !f.SameRankChild[v] {
			return radio.Listen
		}
		var pkt radio.Packet
		if f.StretchStart[v] {
			if p.has {
				pkt = p.pkt
			}
		} else {
			pkt = p.relay
			p.relay = nil // one relay per received wave
		}
		switch {
		case pkt != nil:
			return radio.Transmit(pkt)
		case p.noising:
			return radio.Transmit(radio.NoisePacket{})
		default:
			return radio.Listen
		}
	}
	base := 1 + 2*int64(f.Vdist[v])
	if t < base || (t-base)%6 != 0 {
		return radio.Listen
	}
	if exp := ((t - base) / 6) % int64(p.s.L); exp > 0 &&
		rng.Mix(p.key, uint64(p.id), uint64(t)) >= uint64(1)<<(64-uint(exp)) {
		return radio.Listen
	}
	switch {
	case p.has:
		return radio.Transmit(p.pkt)
	case p.noising:
		return radio.Transmit(radio.NoisePacket{})
	default:
		return radio.Listen
	}
}

func (p *keyedTwin) Observe(t int64, out radio.Outcome) {
	if out.Packet == nil {
		return
	}
	if _, isNoise := out.Packet.(radio.NoisePacket); isNoise {
		return
	}
	if !p.has {
		p.has = true
		p.pkt = out.Packet
		p.recv = t
	}
	// Buffer the parent's fast wave for relaying two rounds later.
	f, v := p.f, p.id
	if f.Parent[v] == out.From && f.ParentRank[v] == f.Rank[v] &&
		p.s.FastSlot(t, f.Level[v]-1, f.Rank[v]) {
		p.relay = out.Packet
	}
}

// denseGSTCase builds the radiotest case for one workload: state is
// the reception round for informed nodes, -2 for uninformed ones.
func denseGSTCase(g *graph.Graph, f *gst.Flat, seed uint64, src graph.NodeID,
	cd, noising bool, mk func() radio.Channel) radiotest.DenseCase {
	s := mmv.NewSchedule(g.N())
	return radiotest.DenseCase{
		Graph:         g,
		CD:            cd,
		MaxPacketBits: 64,
		Channel:       mk,
		Limit:         1 << 18,
		Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
			pr := mmv.NewDense(g, f, s, seed, src, noising)
			return pr, pr.Done, func(v graph.NodeID) int64 {
				if !pr.Informed(v) {
					return -2
				}
				return pr.RecvRound(v)
			}
		},
	}
}

func twinGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.ClusterChain(8, 8),
		graph.FromStream(graph.StreamGrid(13, 17)),
		graph.BuildConnected(graph.StreamGNP(300, 0.03, 11), 11),
	}
}

// TestDenseMatchesKeyedSparseTwin is the byte-identity acceptance
// property: on shared seeds the dense run and the keyed sparse twin
// agree on every node's reception round — ideal and under erasure, CD
// on and off, noising on and off.
func TestDenseMatchesKeyedSparseTwin(t *testing.T) {
	for _, g := range twinGraphs() {
		tr := gst.Construct(g, 0)
		f := gst.Flatten(tr)
		s := mmv.NewSchedule(g.N())
		for _, cd := range []bool{false, true} {
			for _, loss := range []float64{0, 0.15} {
				for _, noising := range []bool{false, true} {
					var mk func() radio.Channel
					if loss > 0 {
						loss := loss
						mk = func() radio.Channel { return channel.NewErasure(loss, 77) }
					}
					label := fmt.Sprintf("%s cd=%v loss=%g noising=%v", g.Name(), cd, loss, noising)
					c := denseGSTCase(g, f, 42, 0, cd, noising, mk)
					radiotest.Twin(t, label, c, func(nw *radio.Network, rounds int64) func(graph.NodeID) int64 {
						twins := make([]*keyedTwin, g.N())
						for v := 0; v < g.N(); v++ {
							tw := &keyedTwin{
								s: s, f: f, key: mmv.DenseKey(42),
								id: graph.NodeID(v), noising: noising, recv: -1,
							}
							if graph.NodeID(v) == 0 {
								tw.has = true
								tw.pkt = decay.Message{Data: 0}
							}
							twins[v] = tw
							nw.SetProtocol(graph.NodeID(v), tw)
						}
						nw.Run(rounds)
						return func(v graph.NodeID) int64 {
							if !twins[v].has {
								return -2
							}
							return twins[v].recv
						}
					})
				}
			}
		}
	}
}

// TestDenseSeedSensitivity guards against the keyed draws collapsing:
// different seeds must produce different schedules on a workload with
// real slow-slot contention.
func TestDenseSeedSensitivity(t *testing.T) {
	g := graph.ClusterChain(8, 8)
	f := gst.Flatten(gst.Construct(g, 0))
	run := func(seed uint64) radiotest.Fingerprint {
		return denseGSTCase(g, f, seed, 0, false, false, nil).Run()
	}
	a, b := run(1), run(2)
	if a.Rounds == b.Rounds && a.Stats == b.Stats {
		t.Fatal("seeds 1 and 2 produced identical runs; keyed draws look degenerate")
	}
}

// TestDenseCompletes sanity-checks the semantics on the ideal channel
// from a non-zero source: every node informed, the source never
// "receives", and the fast waves keep the round count near the
// O(D + log^2 n) shape rather than the slow-only bound.
func TestDenseCompletes(t *testing.T) {
	g := graph.FromStream(graph.StreamClusterChain(10, 8))
	src := graph.NodeID(g.N() - 1)
	f := gst.Flatten(gst.Construct(g, src))
	fp := denseGSTCase(g, f, 3, src, false, false, nil).Run()
	if !fp.Completed {
		t.Fatalf("dense GST broadcast incomplete after %d rounds", fp.Rounds)
	}
	for v := 0; v < g.N(); v++ {
		if graph.NodeID(v) == src {
			if fp.State[v] != -1 {
				t.Fatalf("source state = %d, want -1", fp.State[v])
			}
		} else if fp.State[v] < 0 {
			t.Fatalf("node %d state = %d at completion", v, fp.State[v])
		}
	}
}

// TestDenseNonSpanningFlat pins the non-member guard: flattening a
// tree that covers only part of the graph must leave the uncovered
// nodes silent but still able to receive.
func TestDenseNonSpanningFlat(t *testing.T) {
	// Path 0..29 with the tree constructed over the whole graph but
	// rooted mid-path: all nodes are members here, so instead build a
	// two-component graph where one component has no root.
	b := graph.NewBuilder(40)
	for v := 0; v < 19; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	for v := 20; v < 39; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID(v+1))
	}
	g := b.Build()
	f := gst.Flatten(gst.Construct(g, 0)) // second component: non-members
	s := mmv.NewSchedule(g.N())
	pr := mmv.NewDense(g, f, s, 7, 0, false)
	eng := radio.NewDense(g, radio.Config{MaxPacketBits: 64}, pr)
	defer eng.Close()
	eng.RunUntil(1<<14, pr.Done)
	for v := 0; v < 20; v++ {
		if !pr.Informed(graph.NodeID(v)) {
			t.Fatalf("member %d uninformed", v)
		}
	}
	for v := 20; v < 40; v++ {
		if pr.Informed(graph.NodeID(v)) {
			t.Fatalf("non-member %d informed across a disconnected component", v)
		}
	}
}
