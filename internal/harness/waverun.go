package harness

// WaveRun is the reusable collision-wave harness — the Theorem 1.1
// layering primitive promoted to a standalone broadcast stack so the
// mobility dynamics layer has a one-shot schedule to retry: a wave
// floods for exactly `horizon` rounds and then the network goes
// silent, which is precisely the regime where a node that drifts into
// range after the horizon is abandoned (the spatial analog of E16's
// late-waking radio). Wired through the adaptive retry layer with
// informed-set carryover, each re-layout period re-launches the wave
// from every already-triggered radio.

import (
	"radiocast/internal/beep"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
)

// WaveRun is a reusable collision-wave broadcast over one engine:
// construct once, run any number of epochs or seeds with zero
// per-run construction. The wave protocol itself is deterministic
// (its randomness budget is zero — collisions ARE the signal), so the
// seed parameter of RunFrom exists only to fit the shared Stack
// shape.
type WaveRun struct {
	sparseStack
	protos  []*beep.Wave
	horizon int64
}

// NewWaveRun builds the reusable wave stack from source with the
// given default per-run horizon. The engine is created with collision
// detection on — the wave is meaningless without the ⊤ symbol.
func NewWaveRun(g *graph.Graph, source graph.NodeID, horizon int64) *WaveRun {
	n := g.N()
	r := &WaveRun{
		sparseStack: sparseStack{nw: radio.New(g, radio.Config{CollisionDetection: true}), src: source},
		protos:      make([]*beep.Wave, n),
		horizon:     horizon,
	}
	r.node = r
	for v := 0; v < n; v++ {
		r.protos[v] = beep.NewWave(graph.NodeID(v) == source, horizon)
		r.protos[v].DoneSet = &r.ds
	}
	return r
}

func (r *WaveRun) nodeDone(v int) bool { return r.protos[v].Level() >= 0 }

// Retopo swaps the engine's topology in place (radio.Network.Retopo):
// the node count must be unchanged. The mobility driver calls this at
// every re-layout period boundary, between epochs.
func (r *WaveRun) Retopo(offsets []int32, edges []radio.NodeID) {
	r.nw.Retopo(offsets, edges)
}

// RunFrom executes one run over ch (nil = ideal), with per-node
// carryover when informed is non-nil: node v starts triggered iff
// informed[v], so every radio reached by earlier epochs re-launches
// the wave. The effective horizon is the
// smaller of the construction horizon and a positive limit — each
// epoch's wave transmits for its own full window and then stops.
func (r *WaveRun) RunFrom(informed []bool, ch radio.Channel, seed uint64, limit int64) (int64, bool, radio.Stats) {
	_ = seed // the wave draws no randomness
	hor := r.horizon
	if limit > 0 && limit < hor {
		hor = limit
	}
	r.begin(informed, ch)
	for v, p := range r.protos {
		p.Reset(epochSource(informed, v, r.src), hor)
		r.nw.SetProtocol(graph.NodeID(v), p)
	}
	return r.finish(hor)
}

// NewAdaptiveWave wraps the collision-wave stack in the retry layer
// with a per-epoch horizon: each epoch floods for up to epochHorizon
// rounds from the carried frontier. Pair with SetRelayout to swap
// topology between epochs — the mobility/churn driver of E23.
func NewAdaptiveWave(g *graph.Graph, chf ChannelFactory, seed uint64, source graph.NodeID, epochHorizon int64) *AdaptiveRunner {
	return newAdaptive(NewWaveRun(g, source, epochHorizon), g.N(), chf, seed, epochHorizon, true)
}
