package harness

// Adaptive wrappers: every reusable protocol context gains an
// adapt.Runner that re-executes the stack in epochs with per-node
// carryover — radios informed by earlier epochs become additional
// sources, so one-shot schedules (Theorem 1.1/1.3) recover the
// loss-starved and late-waking radios their fixed budgets abandon
// (the E13 completion cliff and the E16 coverage collapse). The
// wrappers ride the PR-3 reuse layer: each epoch is a Reset-reused
// run on the already-built stack, so steady-state epochs stay on the
// zero-rebuild path.

import (
	"radiocast/internal/adapt"
	"radiocast/internal/channel"
	"radiocast/internal/graph"
	"radiocast/internal/obs"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// ChannelFactory supplies the channel for each epoch of an adaptive
// run. epoch is the 0-based epoch index; startRound is the total
// simulated rounds consumed by earlier epochs. nil factories (and nil
// returns) mean the ideal channel.
type ChannelFactory func(epoch int, startRound int64) radio.Channel

// EpochChannel adapts one channel instance to a ChannelFactory with
// the retry layer's adversary semantics: epoch 0 rewinds the
// instance's per-run state (radio.ResetChannel) and uses it bare;
// later epochs wrap it in a channel.Offset at the elapsed round count,
// so the model sees one continuous timeline — fault wake clocks stay
// expired once passed, budgets keep draining, and round-keyed
// randomness draws fresh values instead of replaying epoch 0's
// pattern.
func EpochChannel(ch radio.Channel) ChannelFactory {
	if ch == nil {
		return nil
	}
	return func(epoch int, startRound int64) radio.Channel {
		if epoch == 0 {
			radio.ResetChannel(ch)
			return ch
		}
		return channel.NewOffset(ch, startRound)
	}
}

// AdaptiveRunner adapts a reusable harness context to adapt.Runner.
// Epoch 0 is byte-identical to the context's plain Run with the same
// seed (original sources, base seed); epoch e > 0 re-runs the stack
// with the carried informed set as sources under (seed, e)-derived
// randomness. One AdaptiveRunner serves many adaptive runs: epoch 0
// rewinds the carryover, and Reseed switches the base seed.
type AdaptiveRunner struct {
	stack      *sparseStack
	informed   []bool
	baseSeed   uint64
	chf        ChannelFactory
	epochLimit int64 // default per-epoch cap when the policy passes 0
	retopoSafe bool  // the stack may swap topology (see Retopo)
	elapsed    int64
	relayout   func(epoch int)
}

// newAdaptive wraps an n-node context in the retry layer, which
// harvests its per-node done state after every epoch as the next
// epoch's carryover sources. epochLimit caps every epoch (0 = the
// stack's own budget); retopoSafe admits Retopo.
func newAdaptive(s *sparseStack, n int, chf ChannelFactory, seed uint64, epochLimit int64, retopoSafe bool) *AdaptiveRunner {
	return &AdaptiveRunner{stack: s, informed: make([]bool, n), baseSeed: seed, chf: chf, epochLimit: epochLimit, retopoSafe: retopoSafe}
}

// NewAdaptiveWave wraps E23's collision wave (waveStack) in the retry
// layer with a per-epoch horizon: each epoch floods for up to
// epochHorizon rounds from the carried frontier. Pair with SetRelayout
// to swap topology between epochs — the mobility/churn driver of E23.
func NewAdaptiveWave(g *graph.Graph, chf ChannelFactory, seed uint64, source graph.NodeID, epochHorizon int64) *AdaptiveRunner {
	return newAdaptive(waveStack(g, source, epochHorizon), g.N(), chf, seed, epochHorizon, true)
}

var _ adapt.Runner = (*AdaptiveRunner)(nil)

// Reseed switches the base seed for the next adaptive run (effective
// from its epoch 0).
func (a *AdaptiveRunner) Reseed(seed uint64) { a.baseSeed = seed }

// SetChannelFactory switches the channel supplier for the next
// adaptive run (a reused runner needs a per-seed channel, exactly like
// the underlying contexts take a fresh channel per Run).
func (a *AdaptiveRunner) SetChannelFactory(chf ChannelFactory) { a.chf = chf }

// SetObserver forwards to the wrapped context's engine observer (see
// radio.Network.SetObserver); the observer spans every epoch of every
// subsequent adaptive run until replaced or detached with nil.
func (a *AdaptiveRunner) SetObserver(o obs.RoundObserver, stride int64) {
	a.stack.SetObserver(o, stride)
}

// Retopo swaps the wrapped engine's topology in place
// (radio.Network.Retopo). Only the topology-agnostic stacks support
// it — plain Decay (the RetopoSafe table entry) and the collision wave,
// whose per-node protocols depend on nothing but n; the
// schedule-compiled stacks (CR, GST, the Theorem pipelines) bake
// eccentricity or per-node transmission plans out of the construction
// graph, so a swap would silently run a stale schedule. Those panic
// here instead, although every sparse context could swap.
func (a *AdaptiveRunner) Retopo(offsets []int32, edges []radio.NodeID) {
	if !a.retopoSafe {
		panic("harness: this adaptive stack compiles its schedule from the construction graph and cannot Retopo")
	}
	a.stack.Retopo(offsets, edges)
}

// SetRelayout installs the mobility hook: before every carryover
// epoch (epoch > 0) of every subsequent adaptive run, f runs with the
// epoch index — the place to advance a waypoint stepper, rebuild the
// disk graph, and Retopo the engine, so epoch e executes on the
// topology as of e re-layout periods. Epoch 0 always runs on the
// construction topology. nil detaches.
func (a *AdaptiveRunner) SetRelayout(f func(epoch int)) { a.relayout = f }

// RunEpoch implements adapt.Runner.
func (a *AdaptiveRunner) RunEpoch(epoch int, limit int64) (int64, bool, radio.Stats) {
	// The runner's own per-epoch budget is a ceiling, not just a
	// default: even when the policy hands down a larger limit (e.g. the
	// MaxRounds remainder), one epoch of an open-ended baseline must
	// not consume the whole retry budget without re-layering.
	if a.epochLimit > 0 && (limit <= 0 || a.epochLimit < limit) {
		limit = a.epochLimit
	}
	seed := a.baseSeed
	var carry []bool
	if epoch == 0 {
		a.elapsed = 0
	} else {
		seed = rng.Mix(a.baseSeed, 0xada9, uint64(epoch))
		carry = a.informed
		if a.relayout != nil {
			a.relayout(epoch)
		}
	}
	var ch radio.Channel
	if a.chf != nil {
		ch = a.chf(epoch, a.elapsed)
	}
	rounds, done, st := a.stack.RunFrom(carry, ch, seed, limit)
	a.stack.mark(a.informed)
	a.elapsed += rounds
	return rounds, done, st
}

// Covered implements adapt.Runner.
func (a *AdaptiveRunner) Covered() int { return a.stack.Coverage() }
