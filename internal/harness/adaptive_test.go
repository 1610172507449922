package harness

import (
	"testing"

	"radiocast/internal/adapt"
	"radiocast/internal/channel"
	"radiocast/internal/graph"
	"radiocast/internal/rng"
	"radiocast/internal/sched"
)

// On the ideal channel an adaptive run completes in its first epoch,
// and that epoch is byte-identical to the non-adaptive run: same
// rounds, same stats. This is the "zero-cost when trivially enabled"
// invariant the facade's Options.Adaptive relies on.
func TestAdaptiveEpochZeroMatchesOneShot(t *testing.T) {
	g := graph.ClusterChain(4, 6)
	d := graph.Eccentricity(g, 0)

	wantRounds, _, wantStats := cellStack("cd", g, d, StackOpts{}).RunFrom(nil, nil, 5, 0)
	a := mustProtocol("cd").NewAdaptive(g, 0, StackOpts{}, nil, 5)
	out := adapt.Run(a, adapt.Policy{})
	if !out.Completed || out.Epochs != 1 {
		t.Fatalf("ideal-channel adaptive run: %+v, want completion in one epoch", out)
	}
	if out.Rounds != wantRounds || out.Stats != wantStats {
		t.Fatalf("epoch 0 diverged from the one-shot run:\nadaptive %d rounds %+v\noneshot  %d rounds %+v",
			out.Rounds, out.Stats, wantRounds, wantStats)
	}

	rounds, ok, st := mustProtocol("decay").Build(g, 0, StackOpts{}).RunFrom(nil, nil, 5, 1<<20)
	ad := mustProtocol("decay").NewAdaptive(g, 0, StackOpts{}, nil, 5)
	dout := adapt.Run(ad, adapt.Policy{})
	if !dout.Completed || dout.Epochs != 1 || dout.Rounds != rounds || dout.Stats != st || !ok {
		t.Fatalf("adaptive decay epoch 0 diverged: %+v vs %d rounds %+v", dout, rounds, st)
	}
}

// Adaptive runs are exact functions of (graph, config, seed): the same
// multi-epoch lossy run twice must agree in every Outcome field, and a
// different seed must change something.
func TestAdaptiveDeterminism(t *testing.T) {
	g := robustnessChain()
	run := func(seed uint64) adapt.Outcome {
		chf := EpochChannel(channel.NewErasure(0.3, rng.Mix(seed, 0xe13)))
		a := mustProtocol("cd").NewAdaptive(g, 0, StackOpts{}, chf, seed)
		return adapt.Run(a, adapt.Policy{MaxEpochs: adaptMaxEpochs})
	}
	a, b := run(1), run(1)
	if a != b {
		t.Fatalf("adaptive run nondeterministic:\n%+v\n%+v", a, b)
	}
	if a.Epochs < 2 {
		t.Fatalf("loss 0.3 run completed in %d epoch(s); the test needs a multi-epoch run", a.Epochs)
	}
	if !a.Completed {
		t.Fatalf("adaptive run failed to complete: %+v", a)
	}
	if c := run(2); c == a {
		t.Fatal("two seeds produced identical adaptive outcomes; randomness is suspect")
	}
}

// One AdaptiveRunner serves many adaptive runs: epoch 0 rewinds the
// carryover and Reseed switches seeds, so a reused runner's outcomes
// match fresh constructions run-for-run (the reuse contract extended
// to the retry layer).
func TestAdaptiveRunnerReuse(t *testing.T) {
	g := robustnessChain()
	fresh := func(seed uint64) adapt.Outcome {
		chf := EpochChannel(channel.NewErasure(0.3, rng.Mix(seed, 0xe13)))
		return adapt.Run(mustProtocol("cd").NewAdaptive(g, 0, StackOpts{}, chf, seed), adapt.Policy{MaxEpochs: adaptMaxEpochs})
	}
	// The reused runner needs a per-seed channel too: rebuild the
	// factory by pointing the runner at a fresh erasure instance.
	reused := mustProtocol("cd").NewAdaptive(g, 0, StackOpts{}, nil, 0)
	runReused := func(seed uint64) adapt.Outcome {
		reused.Reseed(seed)
		reused.SetChannelFactory(EpochChannel(channel.NewErasure(0.3, rng.Mix(seed, 0xe13))))
		return adapt.Run(reused, adapt.Policy{MaxEpochs: adaptMaxEpochs})
	}
	for seed := uint64(0); seed < 3; seed++ {
		want := fresh(seed)
		if got := runReused(seed); got != want {
			t.Fatalf("seed %d: reused adaptive runner diverged:\nreused %+v\nfresh  %+v", seed, got, want)
		}
	}
}

// Carryover must actually carry: under late-wakeup faults the one-shot
// Theorem 1.1 wave strands the late radios, and the second epoch —
// channel clock offset past every wake round, frontier as sources —
// recovers all of them. This is E18's collapse row as a unit test.
func TestAdaptiveRecoversLateWakers(t *testing.T) {
	g := robustnessChain()
	d := graph.Eccentricity(g, 0)
	ch := channel.RandomFaults(g.N(), 0, 0.4, 256, 0, 0, rng.Mix(0, 0xe16))

	oneShot := cellStack("cd", g, d, StackOpts{})
	_, ok, _ := oneShot.RunFrom(nil, ch, 0, 0)
	if ok || oneShot.Coverage() == g.N() {
		t.Fatalf("one-shot run under 40%% late wakeups covered %d/%d; expected a coverage collapse",
			oneShot.Coverage(), g.N())
	}

	a := mustProtocol("cd").NewAdaptive(g, 0, StackOpts{}, EpochChannel(ch), 0)
	out := adapt.Run(a, adapt.Policy{MaxEpochs: adaptMaxEpochs})
	if !out.Completed || out.Covered != g.N() {
		t.Fatalf("adaptive run did not recover the late wakers: %+v", out)
	}
	if out.Epochs != 2 {
		t.Fatalf("recovery took %d epochs, want 2 (one re-layering pass)", out.Epochs)
	}
}

// The doubling-horizon policy hands open-ended stacks geometrically
// growing epoch budgets: a Decay run whose first epochs are too short
// to finish still completes once the horizon doubles past its needs.
func TestAdaptiveDoublingHorizonDecay(t *testing.T) {
	g := graph.ClusterChain(4, 6)
	a := mustProtocol("decay").NewAdaptive(g, 0, StackOpts{}, nil, 3)
	// Start with a horizon far too small for any progress to finish
	// (ideal-channel Decay needs ~60-100 rounds here).
	out := adapt.Run(a, adapt.Policy{MaxEpochs: 10, EpochLimit: 8, Doubling: true})
	if !out.Completed {
		t.Fatalf("doubling horizon never completed: %+v", out)
	}
	if out.Epochs < 2 {
		t.Fatalf("completed in %d epoch(s); the 8-round initial horizon should have been too short", out.Epochs)
	}
}

// TestAdaptiveEpochBudget pins the default per-epoch round budget of
// every adaptive entry: four times d·L + L² (d the source
// eccentricity, L = log n) for the open-ended entries, none for the
// ring pipelines, whose compiled schedule caps each epoch, and
// StackOpts.EpochLimit whenever it is set.
func TestAdaptiveEpochBudget(t *testing.T) {
	cases := []struct {
		g   *graph.Graph
		src graph.NodeID
	}{
		{graph.ClusterChain(4, 6), 0},
		{graph.Grid(5, 7), 17},
	}
	for _, c := range cases {
		l := int64(sched.LogN(c.g.N()))
		d := int64(graph.Eccentricity(c.g, c.src))
		want := map[string]int64{
			"decay": 4 * (d*l + l*l),
			"cr":    4 * (d*l + l*l),
			"gst":   4 * (d*l + l*l),
			"cd":    0,
			"k-cd":  0,
		}
		for _, name := range ProtocolNames(func(p *Protocol) bool { return p.Adaptive }) {
			w, ok := want[name]
			if !ok {
				t.Fatalf("adaptive entry %s has no pinned budget", name)
			}
			p := mustProtocol(name)
			if got := p.NewAdaptive(c.g, c.src, StackOpts{}, nil, 1).epochLimit; got != w {
				t.Errorf("%s from %d on %s: epoch budget %d, want %d", name, c.src, c.g.Name(), got, w)
			}
			if got := p.NewAdaptive(c.g, c.src, StackOpts{EpochLimit: 99}, nil, 1).epochLimit; got != 99 {
				t.Errorf("%s from %d on %s with EpochLimit 99: epoch budget %d", name, c.src, c.g.Name(), got)
			}
		}
	}
}
