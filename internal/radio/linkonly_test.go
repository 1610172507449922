package radio_test

// Twin identity for both engines' link-only path: a channel that
// reports radio.LinkOnlyChannel runs on the ideal path — Dense's
// collect/deliver resolve, Network's first-touch resolve — with its
// link loss applied while counting, and must yield exactly what the
// per-listener Observe sweep yields for the same channel. The sweep
// twin wraps the channel in struct{ radio.Channel }, which hides the
// capability; the fast twin wraps it in observeGuard, which counts
// Observe calls so a silent fall-back to the sweep fails the test
// without any timing.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"radiocast/internal/beep"
	"radiocast/internal/channel"
	"radiocast/internal/cr"
	"radiocast/internal/decay"
	"radiocast/internal/geo"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/radio/radiotest"
	"radiocast/internal/rng"
)

// observeGuard forwards every hook to its channel, reports the same
// link-only answer, and counts Observe calls. It is safe under the
// engine's concurrent Observe calls.
type observeGuard struct {
	radio.Channel
	calls *atomic.Int64
}

func (g observeGuard) LinkOnly() bool { return radio.IsLinkOnly(g.Channel) }

func (g observeGuard) Observe(r int64, to radio.NodeID, count int, out radio.Outcome, ok bool) (radio.Outcome, bool) {
	g.calls.Add(1)
	return g.Channel.Observe(r, to, count, out, ok)
}

// pathTwin runs run under mk's channel on both engine paths and
// requires identical fingerprints. The fast path must make no Observe
// call and the sweep must make some, so each twin is known to have run
// the path it claims. It returns the fast fingerprint.
func pathTwin(t *testing.T, label string, mk func() radio.Channel, run func(radio.Channel) radiotest.Fingerprint) radiotest.Fingerprint {
	t.Helper()
	if !radio.IsLinkOnly(mk()) {
		t.Fatalf("%s: channel is not link-only", label)
	}
	var fastCalls, sweepCalls atomic.Int64
	sweep := run(struct{ radio.Channel }{observeGuard{mk(), &sweepCalls}})
	fast := run(observeGuard{mk(), &fastCalls})
	if n := fastCalls.Load(); n != 0 {
		t.Fatalf("%s: link-only run made %d Observe calls (fell back to the sweep)", label, n)
	}
	if sweepCalls.Load() == 0 {
		t.Fatalf("%s: wrapped run made no Observe calls (did not sweep)", label)
	}
	if fast.Stats.Jammed != 0 {
		t.Fatalf("%s: link-only run counted %d jammed observations", label, fast.Stats.Jammed)
	}
	radiotest.Equal(t, label+" fast vs sweep", fast, sweep)
	return fast
}

// linkOnlyTwin runs the dense case c through pathTwin at each worker
// count, and requires identical fingerprints across worker counts too.
func linkOnlyTwin(t *testing.T, label string, c radiotest.DenseCase, mk func() radio.Channel, workers ...int) {
	t.Helper()
	var base radiotest.Fingerprint
	for i, w := range workers {
		c.Workers = w
		wl := fmt.Sprintf("%s workers=%d", label, w)
		fast := pathTwin(t, wl, mk, func(ch radio.Channel) radiotest.Fingerprint {
			c.Channel = func() radio.Channel { return ch }
			return c.Run()
		})
		if i == 0 {
			base = fast
		} else {
			radiotest.Equal(t, fmt.Sprintf("%s vs workers=%d", wl, workers[0]), fast, base)
		}
	}
}

// linkTwinProto is one dense protocol of the link-only twin: its name
// and its case builder.
type linkTwinProto struct {
	name string
	mk   func(g *graph.Graph) radiotest.DenseCase
}

var linkTwinProtos = []linkTwinProto{
	{"decay", func(g *graph.Graph) radiotest.DenseCase { return decayCase(g, false, nil) }},
	{"decay-cd", func(g *graph.Graph) radiotest.DenseCase { return decayCase(g, true, nil) }},
	{"cr", func(g *graph.Graph) radiotest.DenseCase {
		p := cr.NewParams(g.N(), graph.Eccentricity(g, 0))
		return radiotest.DenseCase{
			Graph: g, MaxPacketBits: 64,
			Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
				pr := cr.NewDense(g, p, 42, 0)
				return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
			},
		}
	}},
	{"wave", func(g *graph.Graph) radiotest.DenseCase {
		horizon := 4*int64(graph.Eccentricity(g, 0)) + 64
		return radiotest.DenseCase{
			Graph: g, CD: true, MaxPacketBits: 8, Limit: horizon,
			Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
				pr := beep.NewDenseWave(g, 0, horizon)
				return pr, pr.Done, func(v graph.NodeID) int64 { return int64(pr.Level(v)) }
			},
		}
	}},
	{"mmv", func(g *graph.Graph) radiotest.DenseCase {
		f := gst.Flatten(gst.Construct(g, 0))
		s := mmv.NewSchedule(g.N())
		return radiotest.DenseCase{
			Graph: g, MaxPacketBits: 64, Limit: 1 << 18,
			Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
				pr := mmv.NewDense(g, f, s, 42, 0, false)
				return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
			},
		}
	}},
}

// sparseDecayRun runs sparse Decay on schedule s from node 0 over g
// under ch until every node is informed or limit, and fingerprints it
// with each node's reception round (-1 for the source, -2 uninformed).
func sparseDecayRun(g *graph.Graph, s decay.Schedule, cd bool, ch radio.Channel, seed uint64, limit int64) radiotest.Fingerprint {
	nw := radio.New(g, radio.Config{CollisionDetection: cd, MaxPacketBits: 64, Channel: ch})
	var done radio.DoneSet
	done.Reset(g.N())
	done.Tick() // the source starts informed
	protos := make([]*decay.Broadcast, g.N())
	for v := range protos {
		protos[v] = decay.NewBroadcast(s, v == 0, decay.Message{Data: 1}, rng.New(seed, uint64(v)))
		protos[v].DoneSet = &done
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	rounds, ok := nw.RunUntil(limit, done.Done)
	fp := radiotest.Fingerprint{Rounds: rounds, Completed: ok, Stats: nw.Stats(), State: make([]int64, g.N())}
	for v, p := range protos {
		fp.State[v] = -2
		if p.Has() {
			fp.State[v] = p.RecvRound
		}
	}
	return fp
}

// networkLinkOnlyTwin runs sparse Decay through pathTwin: Network's
// first-touch resolve against its awake-listener sweep.
func networkLinkOnlyTwin(t *testing.T, label string, g *graph.Graph, s decay.Schedule, cd bool, mk func() radio.Channel, seed uint64, limit int64) {
	t.Helper()
	pathTwin(t, label, mk, func(ch radio.Channel) radiotest.Fingerprint {
		return sparseDecayRun(g, s, cd, ch, seed, limit)
	})
}

// linkModel is one link-only channel model of the twin tests.
type linkModel struct {
	name string
	mk   func() radio.Channel
}

// linkTwinWorkload is one graph of the twin tests with the models run
// on it.
type linkTwinWorkload struct {
	name   string
	g      *graph.Graph
	models []linkModel
}

// linkTwinWorkloads are flat erasure (0.1, 0.3) on gnp and grid, and
// RangeErasure on a quasi-unit-disk layout (graph at the outer radius,
// band loss from the positions).
func linkTwinWorkloads() []linkTwinWorkload {
	flat := []linkModel{
		{"erasure=0.1", func() radio.Channel { return channel.NewErasure(0.1, 99) }},
		{"erasure=0.3", func() radio.Channel { return channel.NewErasure(0.3, 99) }},
	}
	l := geo.Uniform(300, 5)
	rc := geo.ConnectivityRadius(300)
	band := []linkModel{
		{"range-erasure", func() radio.Channel { return channel.NewRangeErasure(l.X, l.Y, rc, 1.6*rc, 99) }},
	}
	return []linkTwinWorkload{
		// Large enough that frontiers cross the parallel gate, so
		// Workers=4 really fans out.
		{"gnp", graph.BuildConnected(graph.StreamGNP(3000, 8.0/3000, 7), 7), flat},
		{"grid", graph.FromStream(graph.StreamGrid(17, 23)), flat},
		{"qudg", graph.BuildConnected(geo.NewDisk(l, 1.6*rc), 5), band},
	}
}

// TestDenseLinkOnlyTwin covers the dense catalog on every twin
// workload at Workers 1 and 4.
func TestDenseLinkOnlyTwin(t *testing.T) {
	for _, wl := range linkTwinWorkloads() {
		for _, p := range linkTwinProtos {
			c := p.mk(wl.g)
			for _, m := range wl.models {
				linkOnlyTwin(t, fmt.Sprintf("%s %s %s", p.name, wl.name, m.name), c, m.mk, 1, 4)
			}
		}
	}
}

// TestNetworkLinkOnlyTwin covers sparse Decay, on the plain and the CR
// schedule with CD on and off, on every twin workload.
func TestNetworkLinkOnlyTwin(t *testing.T) {
	for _, wl := range linkTwinWorkloads() {
		schedules := []struct {
			name string
			s    decay.Schedule
		}{
			{"decay", decay.PlainSchedule(wl.g.N())},
			{"cr", cr.NewParams(wl.g.N(), graph.Eccentricity(wl.g, 0))},
		}
		for _, sc := range schedules {
			for _, cd := range []bool{false, true} {
				for _, m := range wl.models {
					label := fmt.Sprintf("sparse %s %s %s cd=%v", sc.name, wl.name, m.name, cd)
					networkLinkOnlyTwin(t, label, wl.g, sc.s, cd, m.mk, 42, 1<<16)
				}
			}
		}
	}
}
