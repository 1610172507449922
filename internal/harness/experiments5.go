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
	"radiocast/internal/rings"
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
	const k = 4
	budgets := map[string]int64{
		"th11": rings.DefaultConfig(g.N(), d, 0, 1).TotalRounds(),
		"th13": rings.DefaultConfig(g.N(), d, k, 1).TotalRounds(),
	}
	p := &exp.Plan{ID: "E17", Title: "Adaptive retry: loss sweep with re-layering (Thm 1.1/1.3)"}
	for _, loss := range losses {
		for _, proto := range e17Protocols {
			for s := 0; s < seeds; s++ {
				loss, proto, seed := loss, proto, uint64(s)
				p.Cells = append(p.Cells, exp.Cell{
					Key: exp.Key{Experiment: "E17", Config: fmt.Sprintf("loss=%g/%s", loss, proto), Seed: seed},
					// ~3 epochs of the one-shot schedule at the cliff.
					Cost: 3 * budgetCost(g.N(), budgets[proto]),
					Run: func(limit int64) exp.Result {
						// Same erasure stream as the E13 cell of this (loss,
						// seed): the rows answer "what would adaptivity have
						// done for exactly that run".
						chf := EpochChannel(lossChannel(loss, seed))
						p, _ := LookupProtocol(tableEntry(proto))
						a := p.NewAdaptive(g, 0, StackOpts{K: k}, chf, seed)
						out := adapt.Run(a, adapt.Policy{MaxEpochs: adaptMaxEpochs, MaxRounds: limit})
						res := exp.RoundsOn(out.Rounds, out.Completed, out.Stats.Dropped, out.Stats.Jammed)
						res.Value = float64(out.Epochs)
						res.Epochs = out.Epochs
						res.Covered = out.Covered
						return res
					},
				})
			}
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		t := &stats.Table{
			Title: "E17: adaptive re-layering under per-link packet loss (clusterchain-6x6)",
			Comment: "each epoch re-runs the full one-shot schedule with every informed radio as an additional source;\n" +
				"1-epoch = seeds whose first epoch (byte-identical to the non-adaptive run) completed — E13's cliff;\n" +
				"inflation = mean total rounds / one-shot schedule budget, the bounded price of closing it",
			Header: []string{"loss", "protocol", "ok", "1-epoch", "epochs", "rounds", "inflation"},
		}
		for _, loss := range losses {
			for _, proto := range e17Protocols {
				var rs, es []float64
				okCount, oneEpoch := 0, 0
				for s := 0; s < seeds; s++ {
					r := idx[exp.Key{Experiment: "E17", Config: fmt.Sprintf("loss=%g/%s", loss, proto), Seed: uint64(s)}]
					es = append(es, r.Value)
					if r.Completed {
						okCount++
						rs = append(rs, float64(r.Rounds))
						if r.Value == 1 {
							oneEpoch++
						}
					}
				}
				mean := meanOrDash(rs)
				t.AddRow(stats.F(loss), proto,
					fmt.Sprintf("%d/%d", okCount, seeds),
					fmt.Sprintf("%d/%d", oneEpoch, seeds),
					stats.F(meanOrDash(es)), stats.F(mean),
					stats.F(mean/float64(budgets[proto])))
			}
		}
		return t
	}
	return p
}

// e18Variants orders E18's columns: the one-shot Theorem 1.1 run
// (E16's collapsing late-wakeup cell, reproduced with the identical
// fault table) against the adaptive re-layering of the same stack.
var e18Variants = []string{"oneshot", "adaptive"}

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
	budget := rings.DefaultConfig(g.N(), d, 0, 1).TotalRounds()
	p := &exp.Plan{ID: "E18", Title: "Adaptive retry: late-wakeup re-layering (Thm 1.1)"}
	for _, rate := range rates {
		for _, variant := range e18Variants {
			for s := 0; s < seeds; s++ {
				rate, variant, seed := rate, variant, uint64(s)
				cost := budgetCost(g.N(), budget)
				if variant == "adaptive" {
					cost *= 2 // ~2 epochs
				}
				p.Cells = append(p.Cells, exp.Cell{
					Key:  exp.Key{Experiment: "E18", Config: fmt.Sprintf("late=%g/%s", rate, variant), Seed: seed},
					Cost: cost,
					Run: func(limit int64) exp.Result {
						n := float64(g.N())
						// Identical fault table to E16's late/th11 cell at this
						// (rate, seed): same mix key, late-wakeup only.
						ch := faultChannel(g.N(), "late", rate, seed)
						if variant == "oneshot" {
							r := cellStack("cd", g, d, StackOpts{})
							rounds, ok, st := r.RunFrom(nil, ch, seed, limit)
							res := exp.RoundsOn(rounds, ok, st.Dropped, st.Jammed)
							res.Value = float64(r.Coverage()) / n
							return res
						}
						cd, _ := LookupProtocol("cd")
						a := cd.NewAdaptive(g, 0, StackOpts{}, EpochChannel(ch), seed)
						out := adapt.Run(a, adapt.Policy{MaxEpochs: adaptMaxEpochs, MaxRounds: limit})
						res := exp.RoundsOn(out.Rounds, out.Completed, out.Stats.Dropped, out.Stats.Jammed)
						res.Value = float64(out.Covered) / n
						res.Payload = out.Epochs
						res.Epochs = out.Epochs
						res.Covered = out.Covered
						return res
					},
				})
			}
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		idx := exp.Index(results)
		t := &stats.Table{
			Title: "E18: late-wakeup coverage, one-shot vs adaptive re-layering (clusterchain-6x6)",
			Comment: fmt.Sprintf("radios dead until a uniform wake round in [1,%d] with probability rate (E16's fault tables);\n"+
				"the one-shot wave abandons radios that wake after it passed, re-layering re-covers them from the\n"+
				"informed frontier — adaptive coverage must be 1.0 on every row", e16MaxDelay),
			Header: []string{"rate", "oneshot cov", "oneshot ok", "adaptive cov", "adaptive ok", "epochs", "adaptive rounds"},
		}
		for _, rate := range rates {
			collect := func(variant string) (cov float64, okCount int, epochs, rounds float64) {
				var covs, es, rs []float64
				for s := 0; s < seeds; s++ {
					r := idx[exp.Key{Experiment: "E18", Config: fmt.Sprintf("late=%g/%s", rate, variant), Seed: uint64(s)}]
					covs = append(covs, r.Value)
					rs = append(rs, float64(r.Rounds))
					if e, ok := r.Payload.(int); ok {
						es = append(es, float64(e))
					}
					if r.Completed {
						okCount++
					}
				}
				return stats.Summarize(covs, 0, 0).Mean, okCount, meanOrDash(es), stats.Summarize(rs, 0, 0).Mean
			}
			ocov, ook, _, _ := collect("oneshot")
			acov, aok, aep, arounds := collect("adaptive")
			t.AddRow(stats.F(rate),
				stats.F(ocov), fmt.Sprintf("%d/%d", ook, seeds),
				stats.F(acov), fmt.Sprintf("%d/%d", aok, seeds),
				stats.F(aep), stats.F(arounds))
		}
		return t
	}
	return p
}
