package harness

// Robustness experiments E13-E15: the paper's protocols on the
// adversarial channels of internal/channel. The fixed-schedule theorem
// stacks (Thm 1.1/1.3) trade retries for round-optimal pipelines, so
// channel adversity is exactly where they should break before the
// retry-forever baselines do — these sweeps measure where.

import (
	"fmt"

	"radiocast/internal/channel"
	"radiocast/internal/exp"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
	"radiocast/internal/stats"
)

// robustnessChain is the shared E13/E15 workload: moderate diameter,
// dense cliques — the regime where the CD machinery matters and runs
// stay fast enough for a per-loss-rate sweep.
func robustnessChain() *graph.Graph { return graph.ClusterChain(6, 6) }

// meanJammed is the mean jammed-observation count of runs (E14/E15).
func meanJammed(runs exp.Runs) float64 {
	return exp.Mean(runs.Each(func(r exp.Result) float64 { return float64(r.Jammed) }))
}

// e13Protocols orders the protocol columns of E13.
var e13Protocols = []string{"decay", "cr", "th11", "th13"}

// tableEntry maps a robustness column label to its protocol-table
// entry: th11 and th13 label the ring pipelines cd and k-cd, and every
// other label is the entry's own name.
func tableEntry(col string) string {
	switch col {
	case "th11":
		return "cd"
	case "th13":
		return "k-cd"
	}
	return col
}

// E13Plan sweeps a per-link erasure rate under all four broadcast
// stacks. Expected shape: Decay and CR retry forever, so they stay
// complete with a slowdown growing in 1/(1-p)-ish fashion; the fixed
// round budgets of Theorems 1.1/1.3 absorb small loss inside their
// Θ(·) slack, then fall off a completion cliff.
func E13Plan(seeds int, quick bool) *exp.Plan {
	losses := []float64{0, 0.05, 0.1, 0.2, 0.3}
	if quick {
		losses = []float64{0, 0.1, 0.3}
	}
	g := robustnessChain()
	d := graph.Eccentricity(g, 0)
	o := StackOpts{K: 4}
	p := exp.NewGrid("E13", "Robustness: loss-rate sweep (Decay vs CR vs Thm 1.1 vs Thm 1.3)", seeds)
	for _, loss := range losses {
		for _, proto := range e13Protocols {
			entry := tableEntry(proto)
			p.Add(fmt.Sprintf("loss=%g/%s", loss, proto), broadcastLimit, adverseCost(entry, g, d, o), func(seed uint64, limit int64) exp.Result {
				return runOn(cellStack(entry, g, d, o), lossChannel(loss, seed), seed, limit)
			})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "E13: broadcast under per-link packet loss (clusterchain-6x6)",
			Comment: "mean rounds over completed seeds; slowdown vs loss=0; retry-forever baselines degrade gracefully,\n" +
				"the fixed-budget theorem stacks (th11/th13) fall off a completion cliff",
			Header: []string{"loss", "protocol", "rounds", "slowdown", "dropped", "ok"},
		}
		base := map[string]float64{}
		for _, loss := range losses {
			for _, proto := range e13Protocols {
				runs := p.Runs(results, fmt.Sprintf("loss=%g/%s", loss, proto))
				mean := exp.MeanOrDash(runs.Rounds())
				if loss == 0 {
					base[proto] = mean
				}
				dropped := runs.Each(func(r exp.Result) float64 { return float64(r.Dropped) })
				t.AddRow(stats.F(loss), proto, stats.F(mean), stats.F(mean/base[proto]),
					stats.F(exp.MeanOrDash(dropped)), runs.OK())
			}
		}
		return t
	}
	return p.Plan
}

// lossChannel returns a fresh per-run erasure channel; loss 0 is the
// ideal channel (nil), anchoring the sweep's baseline to the
// fast-path engine.
func lossChannel(loss float64, seed uint64) radio.Channel {
	if loss == 0 {
		return nil
	}
	return channel.NewErasure(loss, rng.Mix(seed, 0xe13))
}

// e14Variants orders the jammer policies of E14.
var e14Variants = []string{"oblivious", "adaptive"}

// E14Plan sweeps a jammer's round budget under both targeting
// policies. Expected shape: Decay absorbs any finite budget (it
// retries past the jam; completion time ≈ budget + base for the
// adaptive jammer, which wastes nothing on idle slots), while
// Theorem 1.1's one-shot schedule loses its wave/build phases to the
// jam and cannot recover within its budget.
func E14Plan(seeds int, quick bool) *exp.Plan {
	budgets := []int64{0, 64, 256, 1024}
	if quick {
		budgets = []int64{0, 256}
	}
	g := graph.Grid(8, 8)
	d := graph.Eccentricity(g, 0)
	protos := []string{"decay", "th11"}
	p := exp.NewGrid("E14", "Robustness: jammer-budget sweep (oblivious vs adaptive)", seeds)
	config := func(budget int64, variant, proto string) string {
		return fmt.Sprintf("jam=%d/%s/%s", budget, variant, proto)
	}
	for _, budget := range budgets {
		for _, variant := range e14Variants {
			for _, proto := range protos {
				entry := tableEntry(proto)
				p.Add(config(budget, variant, proto), broadcastLimit, adverseCost(entry, g, d, StackOpts{})+budget, func(seed uint64, limit int64) exp.Result {
					ch := jamChannel(budget, variant == "adaptive", seed)
					return runOn(cellStack(entry, g, d, StackOpts{}), ch, seed, limit)
				})
			}
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "E14: broadcast under a budgeted jammer (grid-8x8)",
			Comment: "oblivious jams each round w.p. 1/2 until the budget is spent; adaptive jams every slot with\n" +
				"traffic (busiest-slot policy) — Decay retries past any finite budget, Thm 1.1's one-shot schedule cannot",
			Header: []string{"budget", "policy", "decay rounds", "decay ok", "th11 rounds", "th11 ok", "jammed obs"},
		}
		for _, budget := range budgets {
			for _, variant := range e14Variants {
				dr := p.Runs(results, config(budget, variant, "decay"))
				tr := p.Runs(results, config(budget, variant, "th11"))
				t.AddRow(fmt.Sprint(budget), variant,
					stats.F(exp.MeanOrDash(dr.Rounds())), dr.OK(),
					stats.F(exp.MeanOrDash(tr.Rounds())), tr.OK(),
					stats.F(meanJammed(dr)+meanJammed(tr)))
			}
		}
		return t
	}
	return p.Plan
}

// jamChannel returns a fresh per-run jammer; budget 0 is the ideal
// channel (nil).
func jamChannel(budget int64, adaptive bool, seed uint64) radio.Channel {
	if budget == 0 {
		return nil
	}
	if adaptive {
		return channel.NewAdaptiveJammer(budget, 1, rng.Mix(seed, 0xe14))
	}
	return channel.NewJammer(budget, 0.5, rng.Mix(seed, 0xe14))
}

// E15Plan sweeps unreliable collision detection — the most
// paper-relevant adversity: Theorem 1.1's collision-wave layering *is*
// the CD signal, so missed ⊤ (a node joins the wave late) and spurious
// ⊤ (a node joins early) both corrupt the BFS layering the whole stack
// is built on. Decay never consumes the ⊤ symbol, so it rides the same
// noisy channel untouched — the control column demonstrating that the
// breakage is CD-specific, not channel overhead.
func E15Plan(seeds int, quick bool) *exp.Plan {
	qs := []float64{0, 0.05, 0.1, 0.2, 0.4}
	if quick {
		qs = []float64{0, 0.1, 0.4}
	}
	g := robustnessChain()
	d := graph.Eccentricity(g, 0)
	// Each column runs one table entry under q-scaled miss and spurious
	// rates. Decay gets the same noisy channel; it never reads ⊤, so its
	// column must match q=0 exactly.
	variants := []struct {
		col, entry     string
		miss, spurious float64
	}{
		{"decay", "decay", 1, 1},
		{"th11miss", "cd", 1, 0},
		{"th11spur", "cd", 0, 1},
	}
	p := exp.NewGrid("E15", "Robustness: unreliable collision detection sweep", seeds)
	for _, q := range qs {
		for _, v := range variants {
			p.Add(fmt.Sprintf("q=%g/%s", q, v.col), broadcastLimit, adverseCost(v.entry, g, d, StackOpts{}), func(seed uint64, limit int64) exp.Result {
				ch := cdChannel(q*v.miss, q*v.spurious, seed)
				return runOn(cellStack(v.entry, g, d, StackOpts{}), ch, seed, limit)
			})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "E15: broadcast under unreliable collision detection (clusterchain-6x6)",
			Comment: "miss: true ⊤ observed as silence w.p. q; spur: silence observed as ⊤ w.p. q; Decay ignores ⊤\n" +
				"entirely (identical rounds at every q) while Thm 1.1's collision-wave layering degrades",
			Header: []string{"q", "decay rounds", "miss rounds", "miss ok", "spur rounds", "spur ok", "jammed obs"},
		}
		for _, q := range qs {
			dr := p.Runs(results, fmt.Sprintf("q=%g/decay", q))
			mr := p.Runs(results, fmt.Sprintf("q=%g/th11miss", q))
			sr := p.Runs(results, fmt.Sprintf("q=%g/th11spur", q))
			t.AddRow(stats.F(q), stats.F(exp.MeanOrDash(dr.Rounds())),
				stats.F(exp.MeanOrDash(mr.Rounds())), mr.OK(),
				stats.F(exp.MeanOrDash(sr.Rounds())), sr.OK(),
				stats.F(meanJammed(mr)+meanJammed(sr)))
		}
		return t
	}
	return p.Plan
}

// cdChannel returns a fresh per-run unreliable-CD channel; q=0 on both
// axes is the ideal channel (nil).
func cdChannel(miss, spurious float64, seed uint64) radio.Channel {
	if miss == 0 && spurious == 0 {
		return nil
	}
	return channel.NewNoisyCD(miss, spurious, rng.Mix(seed, 0xe15))
}
