package harness

// E16: the fault-rate sweep that completes the robustness catalog —
// the Faults channel (crash / late wakeup) had engine and CLI support
// since the adversarial-channel subsystem landed, but no experiment
// exercised it.

import (
	"fmt"

	"radiocast/internal/channel"
	"radiocast/internal/exp"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
	"radiocast/internal/stats"
)

// e16Variants orders the two fault modes: late wakeup (radios dead
// until a random round, then healthy forever) and crash (radios die
// at a random round, permanently).
var e16Variants = []string{"late", "crash"}

// e16Protocols orders the protocol columns.
var e16Protocols = []string{"decay", "cr", "th11"}

// E16 fault-model horizons: late radios wake uniformly in
// [1, e16MaxDelay]; crashed radios die uniformly in [1, e16Horizon].
// Both are on the order of the fault-free Decay completion time
// (~80 rounds on the E16 workload), so faults actually intersect the
// broadcast — a crash horizon far past completion would be invisible.
const (
	e16MaxDelay = 256
	e16Horizon  = 128
)

// E16Plan sweeps a per-node fault probability under both fault modes.
// Every protocol runs under the SAME round budget (Theorem 1.1's total
// schedule), so the coverage columns compare equal air time. Expected
// shape: under late wakeups the retry-forever baselines stay complete
// (slower), while Theorem 1.1's collision wave has passed before late
// radios wake — they miss their BFS layer and the stack's coverage
// decays with the rate. Under crashes no protocol can finish (a
// crashed radio that never received is unreachable), so the metric is
// coverage: the baselines degrade with the crashed fraction, the
// fixed pipeline collapses faster because a crash also severs the
// relay structure it built.
func E16Plan(seeds int, quick bool) *exp.Plan {
	rates := []float64{0, 0.05, 0.1, 0.2, 0.4}
	if quick {
		rates = []float64{0, 0.1, 0.4}
	}
	g := robustnessChain()
	d := graph.Eccentricity(g, 0)
	budget := mustProtocol("cd").Rounds(g.N(), d, StackOpts{})
	p := exp.NewGrid("E16", "Robustness: radio-fault sweep (late wakeup / crash)", seeds)
	config := func(rate float64, variant, proto string) string {
		return fmt.Sprintf("fault=%g/%s/%s", rate, variant, proto)
	}
	for _, rate := range rates {
		for _, variant := range e16Variants {
			for _, proto := range e16Protocols {
				p.Add(config(rate, variant, proto), budget, adverseCost(tableEntry(proto), g, d, StackOpts{}), func(seed uint64, limit int64) exp.Result {
					return e16Cell(g, d, proto, variant, rate, seed, limit)
				})
			}
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "E16: broadcast under radio faults (clusterchain-6x6, shared round budget)",
			Comment: fmt.Sprintf("late: radios dead until uniform wake in [1,%d]; crash: radios die at uniform round in [1,%d];\n"+
				"cov = mean fraction of nodes holding the message when the run stops (budget %d rounds for every protocol);\n"+
				"baselines retry past late wakeups, Thm 1.1's one-shot wave+build cannot; crashes cap everyone's coverage",
				e16MaxDelay, e16Horizon, budget),
			Header: []string{"fault", "rate", "decay cov", "decay rounds", "cr cov", "th11 cov", "th11 ok"},
		}
		for _, variant := range e16Variants {
			for _, rate := range rates {
				dr := p.Runs(results, config(rate, variant, "decay"))
				cr := p.Runs(results, config(rate, variant, "cr"))
				tr := p.Runs(results, config(rate, variant, "th11"))
				t.AddRow(variant, stats.F(rate),
					stats.F(exp.Mean(dr.Values())), stats.F(exp.MeanOrDash(dr.Rounds())),
					stats.F(exp.Mean(cr.Values())), stats.F(exp.Mean(tr.Values())), tr.OK())
			}
		}
		return t
	}
	return p.Plan
}

// e16Cell executes one fault cell: proto under the variant's fault
// table at the given rate, capped at the shared budget. Value is the
// coverage fraction.
func e16Cell(g *graph.Graph, d int, proto, variant string, rate float64, seed uint64, limit int64) exp.Result {
	s := cellStack(tableEntry(proto), g, d, StackOpts{})
	rounds, ok, st := s.RunFrom(nil, faultChannel(g.N(), variant, rate, seed), seed, limit)
	res := exp.RoundsOn(rounds, ok, st.Dropped, st.Jammed)
	res.Value = float64(s.Coverage()) / float64(g.N())
	return res
}

// faultChannel returns a fresh per-run fault table; rate 0 is the
// ideal channel (nil), anchoring the sweep's baseline.
func faultChannel(n int, variant string, rate float64, seed uint64) radio.Channel {
	if rate == 0 {
		return nil
	}
	if variant == "late" {
		return channel.RandomFaults(n, 0, rate, e16MaxDelay, 0, 0, rng.Mix(seed, 0xe16))
	}
	return channel.RandomFaults(n, 0, 0, 0, rate, e16Horizon, rng.Mix(seed, 0xe16))
}
