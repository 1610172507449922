package radio_test

// Twin identity for the dense engine's link-only path: a channel that
// reports radio.LinkOnlyChannel runs on collect/scatter/merge with its
// link loss applied in scatter, and must yield exactly what the
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
	"radiocast/internal/geo"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/radio/radiotest"
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

// linkOnlyTwin runs c under mk's channel on both engine paths at each
// worker count, and requires identical fingerprints everywhere. The
// fast path must make no Observe call and the sweep must make some, so
// each twin is known to have run the path it claims.
func linkOnlyTwin(t *testing.T, label string, c radiotest.DenseCase, mk func() radio.Channel, workers ...int) {
	t.Helper()
	if !radio.IsLinkOnly(mk()) {
		t.Fatalf("%s: channel is not link-only", label)
	}
	var base radiotest.Fingerprint
	for i, w := range workers {
		var fastCalls, sweepCalls atomic.Int64
		c.Workers = w
		c.Channel = func() radio.Channel { return struct{ radio.Channel }{observeGuard{mk(), &sweepCalls}} }
		sweep := c.Run()
		c.Channel = func() radio.Channel { return observeGuard{mk(), &fastCalls} }
		fast := c.Run()
		wl := fmt.Sprintf("%s workers=%d", label, w)
		if n := fastCalls.Load(); n != 0 {
			t.Fatalf("%s: link-only run made %d Observe calls (fell back to the sweep)", wl, n)
		}
		if sweepCalls.Load() == 0 {
			t.Fatalf("%s: wrapped run made no Observe calls (did not sweep)", wl)
		}
		if fast.Stats.Jammed != 0 {
			t.Fatalf("%s: link-only run counted %d jammed observations", wl, fast.Stats.Jammed)
		}
		radiotest.Equal(t, wl+" fast vs sweep", fast, sweep)
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

// TestDenseLinkOnlyTwin covers the dense catalog under flat erasure
// (0.1, 0.3) on gnp and grid, and under RangeErasure on a
// quasi-unit-disk layout (graph at the outer radius, band loss from
// the positions), at Workers 1 and 4.
func TestDenseLinkOnlyTwin(t *testing.T) {
	type model struct {
		name string
		mk   func() radio.Channel
	}
	flat := []model{
		{"erasure=0.1", func() radio.Channel { return channel.NewErasure(0.1, 99) }},
		{"erasure=0.3", func() radio.Channel { return channel.NewErasure(0.3, 99) }},
	}
	l := geo.Uniform(300, 5)
	rc := geo.ConnectivityRadius(300)
	band := []model{
		{"range-erasure", func() radio.Channel { return channel.NewRangeErasure(l.X, l.Y, rc, 1.6*rc, 99) }},
	}
	workloads := []struct {
		name   string
		g      *graph.Graph
		models []model
	}{
		// Large enough that frontiers cross the parallel gate, so
		// Workers=4 really fans out.
		{"gnp", graph.BuildConnected(graph.StreamGNP(3000, 8.0/3000, 7), 7), flat},
		{"grid", graph.FromStream(graph.StreamGrid(17, 23)), flat},
		{"qudg", graph.BuildConnected(geo.NewDisk(l, 1.6*rc), 5), band},
	}
	for _, wl := range workloads {
		for _, p := range linkTwinProtos {
			c := p.mk(wl.g)
			for _, m := range wl.models {
				linkOnlyTwin(t, fmt.Sprintf("%s %s %s", p.name, wl.name, m.name), c, m.mk, 1, 4)
			}
		}
	}
}
