package decay_test

// Dense-vs-sparse twin identity for the SoA Decay port on both of its
// phase schedules — plain Decay (decay.NewDense) and the CR baseline's
// FastDecay (cr.NewDense) — on the shared radiotest substrate. Dense's
// keyed draws make dense runs incomparable with the per-node-RNG
// Broadcast, so the twin is a sparse radio.Protocol replaying the
// IDENTICAL keyed coins (same key derivation, same Mix(key, node,
// round) draw, same schedule slot) on the per-node engine. The twin
// draws through the variadic rng.Mix, never through the rng.Prefix
// that Dense uses, so it does not share the code it checks. Frontier
// pruning aside — which provably cannot change informed-set dynamics,
// see dense.go — the two engines must produce the same broadcast: same
// reception round for every node, same completion round. Checked on the
// ideal channel and under per-link erasure (whose drops are keyed by
// (round, link) and therefore agree across engines), with CD on and
// off, from node 0 and from a mid-graph source.

import (
	"fmt"
	"math"
	"testing"

	"radiocast/internal/channel"
	"radiocast/internal/cr"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/radio/radiotest"
	"radiocast/internal/rng"
	"radiocast/internal/sched"
)

// schedule is one phase schedule under test: its constructor's
// schedule and key derivation (what the twin replays) and the
// production dense constructor.
type schedule struct {
	name  string
	sched func(g *graph.Graph) decay.Schedule
	key   func(seed uint64) uint64
	dense func(g *graph.Graph, seed uint64, src graph.NodeID) *decay.Dense
}

func crParams(g *graph.Graph) decay.Schedule { return cr.NewParams(g.N(), graph.Eccentricity(g, 0)) }

var schedules = []schedule{
	{"decay", func(g *graph.Graph) decay.Schedule { return decay.PlainSchedule(g.N()) }, decay.DenseKey, decay.NewDense},
	{"cr", crParams, cr.DenseKey, func(g *graph.Graph, seed uint64, src graph.NodeID) *decay.Dense {
		return cr.NewDense(g, crParams(g), seed, src)
	}},
}

// keyedSparse is the sparse twin: a per-node radio.Protocol drawing
// the dense engine's keyed coins on the same schedule.
type keyedSparse struct {
	sched decay.Schedule
	key   uint64
	id    graph.NodeID

	has  bool
	pkt  radio.Packet
	recv int64
}

var _ radio.Protocol = (*keyedSparse)(nil)

func (b *keyedSparse) Act(r int64) radio.Action {
	if !b.has {
		return radio.Listen
	}
	if rng.Mix(b.key, uint64(b.id), uint64(r)) < uint64(1)<<(63-uint(b.sched.Slot(r))) {
		return radio.Transmit(b.pkt)
	}
	return radio.Listen
}

func (b *keyedSparse) Observe(r int64, out radio.Outcome) {
	if b.has || out.Packet == nil {
		return
	}
	if _, ok := out.Packet.(decay.Message); ok {
		b.has = true
		b.pkt = out.Packet
		b.recv = r
	}
}

// denseCase builds the radiotest case: state is the reception round
// for informed nodes, -2 for uninformed ones.
func denseCase(s schedule, g *graph.Graph, seed uint64, src graph.NodeID,
	cd bool, mk func() radio.Channel) radiotest.DenseCase {
	return radiotest.DenseCase{
		Graph:         g,
		CD:            cd,
		MaxPacketBits: 64,
		Channel:       mk,
		Limit:         1 << 18,
		Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
			pr := s.dense(g, seed, src)
			return pr, pr.Done, func(v graph.NodeID) int64 {
				if !pr.Informed(v) {
					return -2
				}
				return pr.RecvRound(v)
			}
		},
	}
}

// TestDenseMatchesKeyedSparseTwin is the byte-identity acceptance
// property: on shared seeds the dense run and the keyed sparse twin
// agree on every node's reception round, for both schedules, ideal and
// under erasure, CD on and off, from two sources.
func TestDenseMatchesKeyedSparseTwin(t *testing.T) {
	graphs := []*graph.Graph{
		graph.ClusterChain(8, 8),
		graph.FromStream(graph.StreamGrid(13, 17)),
		graph.BuildConnected(graph.StreamGNP(300, 0.03, 11), 11),
	}
	for _, s := range schedules {
		t.Run(s.name, func(t *testing.T) {
			for _, g := range graphs {
				sc := s.sched(g)
				for _, src := range []graph.NodeID{0, graph.NodeID(g.N() / 2)} {
					for _, cd := range []bool{false, true} {
						for _, loss := range []float64{0, 0.15} {
							var mk func() radio.Channel
							if loss > 0 {
								mk = func() radio.Channel { return channel.NewErasure(loss, 77) }
							}
							label := fmt.Sprintf("%s src=%d cd=%v loss=%g", g.Name(), src, cd, loss)
							c := denseCase(s, g, 42, src, cd, mk)
							radiotest.Twin(t, label, c, func(nw *radio.Network, rounds int64) func(graph.NodeID) int64 {
								twins := make([]*keyedSparse, g.N())
								for v := 0; v < g.N(); v++ {
									tw := &keyedSparse{sched: sc, key: s.key(42), id: graph.NodeID(v), recv: -1}
									if graph.NodeID(v) == src {
										tw.has = true
										tw.pkt = decay.Message{Data: int64(src)}
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
		})
	}
}

// TestDenseSeedSensitivity guards against the keyed draws collapsing:
// on either schedule, different seeds must produce different runs on a
// workload with real contention.
func TestDenseSeedSensitivity(t *testing.T) {
	g := graph.ClusterChain(8, 8)
	for _, s := range schedules {
		t.Run(s.name, func(t *testing.T) {
			a, b := denseCase(s, g, 1, 0, false, nil).Run(), denseCase(s, g, 2, 0, false, nil).Run()
			if a.Rounds == b.Rounds && a.Stats == b.Stats {
				t.Fatal("seeds 1 and 2 produced identical runs; keyed draws look degenerate")
			}
		})
	}
}

// TestPlainScheduleIsDecayCycle pins the identity that lets one
// implementation serve both schedules: the plain schedule's slot is
// r mod ⌈log n⌉, the classic Decay phase clock, from round 0 through
// several phases and at rounds near the int64 limit.
func TestPlainScheduleIsDecayCycle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 64, 100, 1000, 1 << 20} {
		s := decay.PlainSchedule(n)
		l := int64(sched.LogN(n))
		if s.CycleLen() != l {
			t.Fatalf("n=%d: cycle %d, want %d", n, s.CycleLen(), l)
		}
		check := func(r int64) {
			if got, want := s.Slot(r), int(r%l); got != want {
				t.Fatalf("n=%d r=%d: slot %d, want %d", n, r, got, want)
			}
		}
		for r := int64(0); r < 4*l; r++ {
			check(r)
		}
		for k := int64(0); k < 2*l; k++ {
			check(1<<40 + k)
			check(math.MaxInt64 - k)
		}
	}
}
