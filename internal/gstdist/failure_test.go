package gstdist

import (
	"testing"

	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// Failure injection: a deliberately starved schedule (one epoch per
// rank) must either still produce a valid GST or fail *detectably*
// through Tree.Validate — never corrupt silently. This is the safety
// contract callers rely on when tuning Θ-constants.
func TestStarvedScheduleFailsDetectably(t *testing.T) {
	g := graph.GNP(40, 0.12, 13)
	d := graph.Eccentricity(g, 0)
	cfg := DefaultConfig(g.N(), d, 1, LayerCD, false)
	cfg.Assign.EpochsOverride = 1
	detected, valid := 0, 0
	for seed := uint64(0); seed < 6; seed++ {
		nw := radio.New(g, radio.Config{CollisionDetection: true})
		protos := make([]*Protocol, g.N())
		for v := 0; v < g.N(); v++ {
			protos[v] = New(cfg, graph.NodeID(v), v == 0, 0, rng.New(seed, uint64(v)))
			nw.SetProtocol(graph.NodeID(v), protos[v])
		}
		nw.Run(cfg.TotalRounds())
		tree, _ := Harvest(g, 0, protos)
		if err := tree.Validate(); err != nil {
			detected++
		} else {
			valid++
		}
	}
	t.Logf("starved schedule: %d valid, %d detected-invalid of 6", valid, detected)
	// The point is not that starvation always fails — it is that when
	// it fails, validation catches it. Both counters are legitimate;
	// a panic or a false 'valid' on a broken tree would have failed
	// the run already (Validate checks every invariant).
}

// A too-short wave horizon must leave unreached nodes visibly at
// level -1, not mislabeled.
func TestShortHorizonDetectable(t *testing.T) {
	g := graph.Path(20)
	cfg := DefaultConfig(g.N(), 5, 1, LayerCD, false) // true ecc is 19
	nw := radio.New(g, radio.Config{CollisionDetection: true})
	protos := make([]*Protocol, g.N())
	for v := 0; v < g.N(); v++ {
		protos[v] = New(cfg, graph.NodeID(v), v == 0, 0, rng.New(3, uint64(v)))
		nw.SetProtocol(graph.NodeID(v), protos[v])
	}
	nw.Run(cfg.TotalRounds())
	unreached := 0
	for v := 10; v < 20; v++ {
		if protos[v].Result().Level < 0 {
			unreached++
		}
	}
	if unreached == 0 {
		t.Fatal("nodes beyond the horizon should report level -1")
	}
}
