package radio_test

// Direction twin for the dense engine's delivery: counting the hits on
// each listener by push (transmitter rows) or by pull (listener rows
// against the survivors bitset) must give byte-identical runs, and so
// must the automatic per-round rule, on every channel path and at any
// worker count.

import (
	"fmt"
	"testing"

	"radiocast/internal/channel"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/radio/radiotest"
)

// namedChannel builds a fresh channel per run (nil mk: ideal).
type namedChannel struct {
	name string
	mk   func() radio.Channel
}

// directionChannels are the channel paths the twin crosses: the ideal
// path, a link-only channel (DropLink on every pulled hit), two
// observation-rewriting ones (the Observe sweep), and crash faults,
// whose source suppression makes pull read the survivors bitset.
func directionChannels(n int) []namedChannel {
	return []namedChannel{
		{"ideal", nil},
		{"erasure", func() radio.Channel { return channel.NewErasure(0.1, 5) }},
		{"noisycd", func() radio.Channel { return channel.NewNoisyCD(0.05, 0.05, 5) }},
		{"jammer", func() radio.Channel { return channel.NewJammer(25, 0.05, 5) }},
		{"faults", func() radio.Channel { return channel.RandomFaults(n, 0, 0.1, 40, 0.2, 1<<16, 5) }},
	}
}

// gstCase is the dense GST broadcast on g with MMV noising: uninformed
// members transmit in their slow slots, so whole cliques transmit at
// once and the automatic rule pulls.
func gstCase(g *graph.Graph) radiotest.DenseCase {
	f := gst.Flatten(gst.Construct(g, 0))
	s := mmv.NewSchedule(g.N())
	return radiotest.DenseCase{
		Graph: g, MaxPacketBits: 64, Limit: 1 << 16,
		Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
			pr := mmv.NewDense(g, f, s, 42, 0, true)
			return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
		},
	}
}

// TestDenseDirectionTwin runs each case with the direction forced to
// push, forced to pull and left to the rule, at each worker count, and
// requires one fingerprint throughout.
func TestDenseDirectionTwin(t *testing.T) {
	cluster := graph.ClusterChain(12, 16)
	gnp := graph.BuildConnected(graph.StreamGNP(400, 0.02, 7), 7)
	cases := []struct {
		name    string
		c       radiotest.DenseCase
		workers []int
	}{
		{"gst-noise-cluster12x16", gstCase(cluster), []int{1, 2, 4}},
		{"gst-noise-gnp400", gstCase(gnp), []int{1, 2, 4}},
		{"decay-gnp400", decayCase(gnp, false, nil), []int{1, 2, 4}},
		{"decay-grid15x20", decayCase(graph.FromStream(graph.StreamGrid(15, 20)), false, nil), []int{4}},
	}
	modes := []struct {
		name string
		dir  int
	}{{"auto", radio.DirAuto}, {"push", radio.DirPush}, {"pull", radio.DirPull}}
	for _, tc := range cases {
		for _, ch := range directionChannels(tc.c.Graph.N()) {
			for _, cd := range []bool{false, true} {
				c := tc.c
				c.Channel, c.CD = ch.mk, cd
				var base radiotest.Fingerprint
				for i, m := range modes {
					restore := radio.SetDenseDirection(m.dir)
					for j, w := range tc.workers {
						c.Workers = w
						fp := c.Run()
						if i == 0 && j == 0 {
							base = fp
							continue
						}
						label := fmt.Sprintf("%s %s cd=%v %s workers=%d", tc.name, ch.name, cd, m.name, w)
						radiotest.Equal(t, label, fp, base)
					}
					restore()
				}
			}
		}
	}

	// Keep the twin from passing vacuously: on the noised cluster chain
	// the automatic rule must pull in some rounds and push in others,
	// with and without crash suppression.
	c := cases[0].c
	for _, ch := range []radio.Channel{nil, channel.RandomFaults(cluster.N(), 0, 0.1, 40, 0.2, 1<<16, 5)} {
		pr, done, _ := c.Build()
		eng := radio.NewDense(cluster, radio.Config{MaxPacketBits: 64, Channel: ch}, pr)
		rounds, ok := eng.RunUntil(c.Limit, done)
		eng.Close()
		if pulls := eng.PullRounds(); !ok || pulls == 0 || pulls == rounds {
			t.Fatalf("channel %T: %d of %d rounds pulled (completed %v), want some but not all", ch, pulls, rounds, ok)
		}
		if ch != nil && eng.Stats().Dropped == 0 {
			t.Fatal("faults suppressed nothing; the survivors bitset went unexercised")
		}
	}
}
