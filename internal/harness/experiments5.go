package harness

// Adaptive-retry experiments E17/E18: the internal/adapt re-layering
// subsystem closing the two robustness gaps PR 2 measured. E17 re-runs
// E13's loss grid with the theorem stacks wrapped in the retry layer —
// the completion cliff at loss 0.3 must disappear, at a bounded
// round-inflation factor (a few epochs of the same schedule). E18
// re-runs E16's late-wakeup rows — the one-shot wave's coverage
// collapse must return to 1.0, because radios that woke after the
// epoch-0 wave are re-covered by the epoch-1 wave launched from the
// entire informed frontier. Both experiments derive their channels
// with the SAME seed mixes as E13/E16, so every row is directly
// comparable against the one-shot sweep that motivated it.

import (
	"fmt"

	"radiocast/internal/adapt"
	"radiocast/internal/exp"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/stats"
)

// adaptMaxEpochs caps the retry loop in E17/E18: well above the 2-4
// epochs the sweeps need, well below pathological.
const adaptMaxEpochs = 16

// e17Protocols orders the adaptive protocol columns of E17 — exactly
// the two stacks that fall off E13's completion cliff.
var e17Protocols = []string{"th11", "th13"}

// E17Plan re-runs E13's loss grid with the Theorem 1.1/1.3 pipelines
// wrapped in the adaptive retry layer. Expected shape: completion is
// restored at every loss rate (ok = all seeds), the mean epoch count
// grows gently with loss, and the round inflation vs the one-shot
// schedule budget stays a small constant (each epoch is one more run
// of the same schedule). The 1-epoch column counts seeds whose epoch 0
// — byte-identical to the non-adaptive run — already completed,
// reproducing E13's cliff inside E17's own data.
func E17Plan(seeds int, quick bool) *exp.Plan {
	losses := []float64{0, 0.05, 0.1, 0.2, 0.3}
	if quick {
		losses = []float64{0, 0.1, 0.3}
	}
	g := robustnessChain()
	d := graph.Eccentricity(g, 0)
	o := StackOpts{K: 4}
	p := exp.NewGrid("E17", "Adaptive retry: loss sweep with re-layering (Thm 1.1/1.3)", seeds)
	for _, loss := range losses {
		for _, proto := range e17Protocols {
			// ~3 epochs of the one-shot schedule at the cliff.
			p.Add(fmt.Sprintf("loss=%g/%s", loss, proto), 0, 3*cellCost(tableEntry(proto), g, d, o), func(seed uint64, limit int64) exp.Result {
				// Same erasure stream as the E13 cell of this (loss,
				// seed): the rows answer "what would adaptivity have
				// done for exactly that run".
				res := adaptiveRun(tableEntry(proto), g, o, lossChannel(loss, seed), seed, limit)
				res.Value = float64(res.Epochs)
				return res
			})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "E17: adaptive re-layering under per-link packet loss (clusterchain-6x6)",
			Comment: "each epoch re-runs the full one-shot schedule with every informed radio as an additional source;\n" +
				"1-epoch = seeds whose first epoch (byte-identical to the non-adaptive run) completed — E13's cliff;\n" +
				"inflation = mean total rounds / one-shot schedule budget, the bounded price of closing it",
			Header: []string{"loss", "protocol", "ok", "1-epoch", "epochs", "rounds", "inflation"},
		}
		for _, loss := range losses {
			for _, proto := range e17Protocols {
				runs := p.Runs(results, fmt.Sprintf("loss=%g/%s", loss, proto))
				oneEpoch := 0
				for _, r := range runs {
					if r.Completed && r.Value == 1 {
						oneEpoch++
					}
				}
				mean := exp.MeanOrDash(runs.Rounds())
				budget := mustProtocol(tableEntry(proto)).Rounds(g.N(), d, o)
				t.AddRow(stats.F(loss), proto, runs.OK(),
					fmt.Sprintf("%d/%d", oneEpoch, seeds),
					stats.F(exp.MeanOrDash(runs.Values())), stats.F(mean),
					stats.F(mean/float64(budget)))
			}
		}
		return t
	}
	return p.Plan
}

// adaptiveRun runs a table entry's stack from node 0 in the retry
// layer (at most adaptMaxEpochs epochs and limit rounds) over ch's
// continuous epoch timeline.
func adaptiveRun(entry string, g *graph.Graph, o StackOpts, ch radio.Channel, seed uint64, limit int64) exp.Result {
	p, _ := LookupProtocol(entry)
	a := p.NewAdaptive(g, 0, o, EpochChannel(ch), seed)
	return adaptResult(adapt.Run(a, adapt.Policy{MaxEpochs: adaptMaxEpochs, MaxRounds: limit}))
}

// adaptResult is the cell result of an adaptive run: rounds,
// completion and adversity counters summed over epochs, plus the
// epoch count and final coverage.
func adaptResult(out adapt.Outcome) exp.Result {
	res := exp.RoundsOn(out.Rounds, out.Completed, out.Stats.Dropped, out.Stats.Jammed)
	res.Epochs = out.Epochs
	res.Covered = out.Covered
	return res
}

// E18Plan re-runs E16's late-wakeup rows with the Theorem 1.1 pipeline
// wrapped in the adaptive retry layer. Expected shape: the one-shot
// column reproduces E16's coverage collapse (radios waking after the
// wave passed are abandoned); the adaptive column returns coverage to
// 1.0 in ~2 epochs — by epoch 1 every radio is awake (the channel's
// round clock carries across epochs via channel.Offset, so wake rounds
// stay expired) and the wave relaunches from the whole informed
// frontier.
func E18Plan(seeds int, quick bool) *exp.Plan {
	rates := []float64{0, 0.05, 0.1, 0.2, 0.4}
	if quick {
		rates = []float64{0, 0.1, 0.4}
	}
	g := robustnessChain()
	d := graph.Eccentricity(g, 0)
	p := exp.NewGrid("E18", "Adaptive retry: late-wakeup re-layering (Thm 1.1)", seeds)
	cost := cellCost("cd", g, d, StackOpts{})
	for _, rate := range rates {
		// Both columns use E16's late/th11 fault table at this (rate,
		// seed): the one-shot column is that very cell.
		p.Add(fmt.Sprintf("late=%g/oneshot", rate), 0, cost, func(seed uint64, limit int64) exp.Result {
			return e16Cell(g, d, "th11", "late", rate, seed, limit)
		})
		p.Add(fmt.Sprintf("late=%g/adaptive", rate), 0, 2*cost, func(seed uint64, limit int64) exp.Result { // ~2 epochs
			res := adaptiveRun("cd", g, StackOpts{}, faultChannel(g.N(), "late", rate, seed), seed, limit)
			res.Value = float64(res.Covered) / float64(g.N())
			return res
		})
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "E18: late-wakeup coverage, one-shot vs adaptive re-layering (clusterchain-6x6)",
			Comment: fmt.Sprintf("radios dead until a uniform wake round in [1,%d] with probability rate (E16's fault tables);\n"+
				"the one-shot wave abandons radios that wake after it passed, re-layering re-covers them from the\n"+
				"informed frontier — adaptive coverage must be 1.0 on every row", e16MaxDelay),
			Header: []string{"rate", "oneshot cov", "oneshot ok", "adaptive cov", "adaptive ok", "epochs", "adaptive rounds"},
		}
		for _, rate := range rates {
			one := p.Runs(results, fmt.Sprintf("late=%g/oneshot", rate))
			ad := p.Runs(results, fmt.Sprintf("late=%g/adaptive", rate))
			epochs := ad.Each(func(r exp.Result) float64 { return float64(r.Epochs) })
			t.AddRow(stats.F(rate),
				stats.F(exp.Mean(one.Values())), one.OK(),
				stats.F(exp.Mean(ad.Values())), ad.OK(),
				stats.F(exp.MeanOrDash(epochs)), stats.F(exp.Mean(ad.Each(allRounds))))
		}
		return t
	}
	return p.Plan
}
