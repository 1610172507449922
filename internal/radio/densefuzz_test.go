package radio_test

// Native fuzz target for the dense engine's determinism contract: a
// fuzzer-chosen protocol, channel stack, seed, and worker count must
// still produce a run byte-identical to the sequential one. This
// generalizes the fixed worker-identity tables in dense_test.go to
// arbitrary corners of the configuration space (stacked adversity
// layers, odd worker counts, CD on/off, noising on/off).

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

// fuzzWorkload pairs a graph with its precomputed GST flat arrays, CR
// schedule and source eccentricity so each fuzz execution pays only
// for the run, not the construction.
type fuzzWorkload struct {
	g   *graph.Graph
	f   *gst.Flat
	s   mmv.Schedule
	cr  decay.Schedule
	ecc int
}

var fuzzWorkloads = func() []fuzzWorkload {
	graphs := []*graph.Graph{
		graph.ClusterChain(6, 6),
		graph.FromStream(graph.StreamGrid(7, 9)),
		graph.BuildConnected(graph.StreamGNP(100, 0.05, 13), 13),
	}
	ws := make([]fuzzWorkload, len(graphs))
	for i, g := range graphs {
		ecc := graph.Eccentricity(g, 0)
		ws[i] = fuzzWorkload{g: g, f: gst.Flatten(gst.Construct(g, 0)), s: mmv.NewSchedule(g.N()),
			cr: cr.NewParams(g.N(), ecc), ecc: ecc}
	}
	return ws
}()

// fuzzChannel assembles a channel stack from the mask's low bits, so
// the fuzzer explores layer subsets: erasure, jammer, noisy CD, radio
// faults. All four are safe under concurrent DropLink/Observe (see
// Config.Workers).
func fuzzChannel(mask uint8, n int, seed uint64) func() radio.Channel {
	if mask&0x0f == 0 {
		return nil
	}
	return func() radio.Channel {
		var stack channel.Stack
		if mask&1 != 0 {
			stack = append(stack, channel.NewErasure(0.1, seed))
		}
		if mask&2 != 0 {
			stack = append(stack, channel.NewJammer(20, 0.05, seed))
		}
		if mask&4 != 0 {
			stack = append(stack, channel.NewNoisyCD(0.05, 0.05, seed))
		}
		if mask&8 != 0 {
			stack = append(stack, channel.RandomFaults(n, 0, 0.1, 16, 0.05, 1<<14, seed))
		}
		if len(stack) == 1 {
			return stack[0]
		}
		return stack
	}
}

// FuzzDenseTwinIdentity: for any (protocol, graph, channel stack, CD,
// seed, workers, counting direction) the fuzzer picks, the parallel
// dense run must be byte-identical to the sequential one. An odd pick
// runs the dense GST broadcast (mask bit 32: noising); an even pick
// runs the collision wave when mask bit 128 is set (horizon 4·ecc+64,
// the lossy-channel slack of the protocol table), else dense Decay, on
// the CR schedule when mask bit 64 is set. The bit the protocol leaves
// free — 64 for GST, 32 otherwise — forces every round to count by
// pull, and the pulled runs must also match the automatic rule's
// sequential run.
func FuzzDenseTwinIdentity(f *testing.F) {
	f.Add(uint64(42), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(1), uint8(3), uint8(1), uint8(17))   // erasure+jammer, gst on grid
	f.Add(uint64(7), uint8(15), uint8(2), uint8(100)) // full stack, decay on gnp
	f.Add(uint64(9), uint8(48), uint8(5), uint8(3))   // CD+noising, gst on gnp
	f.Add(uint64(5), uint8(81), uint8(0), uint8(4))   // erasure+CD, cr on clusterchain
	f.Add(uint64(11), uint8(145), uint8(2), uint8(5)) // erasure+CD, wave on gnp
	f.Add(uint64(3), uint8(104), uint8(3), uint8(2))  // faults+noising, pulled gst on clusterchain
	f.Fuzz(func(t *testing.T, seed uint64, chanMask, pick, workersRaw uint8) {
		w := fuzzWorkloads[int(pick)%len(fuzzWorkloads)]
		cd := chanMask&16 != 0
		useGST := pick%2 == 1
		useWave := !useGST && chanMask&128 != 0
		useCR := !useGST && !useWave && chanMask&64 != 0
		dirBit := uint8(32) // the mask bit this protocol leaves free
		if useGST {
			dirBit = 64
		}
		pull := chanMask&dirBit != 0
		workers := 2 + int(workersRaw)%7
		c := radiotest.DenseCase{
			Graph:         w.g,
			CD:            cd,
			MaxPacketBits: 64,
			Channel:       fuzzChannel(chanMask, w.g.N(), seed),
			Limit:         1 << 14,
			Build: func() (radio.DenseProtocol, func() bool, func(graph.NodeID) int64) {
				if useGST {
					pr := mmv.NewDense(w.g, w.f, w.s, seed, 0, chanMask&32 != 0)
					return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
				}
				if useWave {
					pr := beep.NewDenseWave(w.g, 0, 4*int64(w.ecc)+64)
					return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
				}
				var pr *decay.Dense
				if useCR {
					pr = cr.NewDense(w.g, w.cr, seed, 0)
				} else {
					pr = decay.NewDense(w.g, seed, 0)
				}
				return pr, pr.Done, recvState(pr.Informed, pr.RecvRound)
			},
		}
		label := fmt.Sprintf("seed=%d mask=%#x pick=%d gst=%v wave=%v cr=%v pull=%v", seed, chanMask, pick, useGST, useWave, useCR, pull)
		if !pull {
			radiotest.WorkerInvariant(t, label, c, workers)
			return
		}
		auto := c.Run()
		restore := radio.SetDenseDirection(radio.DirPull)
		defer restore()
		radiotest.Equal(t, label+" vs auto", radiotest.WorkerInvariant(t, label, c, workers), auto)
	})
}

// FuzzDenseLinkOnlyTwin: for any (seed, loss, graph, protocol, CD,
// workers) the fuzzer picks, a per-link erasure channel on the dense
// engine's link-only merge path must reproduce the Observe sweep's run
// byte for byte (see linkOnlyTwin), and so must sparse Decay on
// Network's first-touch path, on the same (seed, loss, graph, CD) and
// on the CR schedule when the pick is cr (see networkLinkOnlyTwin).
func FuzzDenseLinkOnlyTwin(f *testing.F) {
	f.Add(uint64(42), uint8(26), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(1), uint8(77), uint8(1), uint8(3), uint8(3))     // loss 0.3, wave on grid
	f.Add(uint64(7), uint8(128), uint8(2), uint8(4), uint8(7))    // loss 0.5, mmv on gnp
	f.Add(uint64(9), uint8(255), uint8(2), uint8(0x82), uint8(1)) // total loss, cr+CD on gnp
	f.Fuzz(func(t *testing.T, seed uint64, lossRaw, pick, protoRaw, workersRaw uint8) {
		w := fuzzWorkloads[int(pick)%len(fuzzWorkloads)]
		g := w.g
		p := linkTwinProtos[int(protoRaw&0x7f)%len(linkTwinProtos)]
		loss := float64(lossRaw) / 255
		c := p.mk(g)
		c.CD = c.CD || protoRaw&0x80 != 0
		if c.Limit == 0 || c.Limit > 1<<14 {
			c.Limit = 1 << 14
		}
		mk := func() radio.Channel { return channel.NewErasure(loss, seed) }
		label := fmt.Sprintf("seed=%d loss=%g pick=%d %s cd=%v", seed, loss, pick, p.name, c.CD)
		linkOnlyTwin(t, label, c, mk, 1, 1+int(workersRaw)%8)
		s := decay.PlainSchedule(g.N())
		if p.name == "cr" {
			s = w.cr
		}
		networkLinkOnlyTwin(t, "sparse "+label, g, s, c.CD, mk, seed, c.Limit)
	})
}
