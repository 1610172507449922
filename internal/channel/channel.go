// Package channel provides pluggable channel-adversity models for the
// radio engine: per-link packet erasure, unreliable collision
// detection, budgeted jammers, and per-node radio faults. A model
// implements radio.Channel and is installed via radio.Config.Channel
// (nil = the ideal channel of the paper's Section 1.1 model).
//
// Every probabilistic draw is a keyed SplitMix64 mix of
// (model seed, round, node/link), so a run remains fully determined by
// (graph, parameters, seed) regardless of hook evaluation order, and
// stacked models never perturb each other's streams. The per-link and
// per-listener draws go through an rng.Prefix that the constructor
// builds over (seed, purpose tag), so they absorb the fixed keys once
// while the model stays free of per-round state. Models may carry
// mutable per-run state (jammer budgets): construct a fresh instance
// per run, or reuse one across runs through the
// radio.ResettableChannel contract — stateful models implement
// Reset(), and the harness runners invoke it at the start of every
// fresh seeded run. The adaptive retry layer (internal/adapt) instead
// carries channel state ACROSS the epochs of one run — budgets are a
// property of the adversary, not of an epoch — and shifts the round
// clock each epoch via Offset so round-keyed draws and fault wake
// clocks see one continuous timeline.
package channel

import (
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// chance reports a deterministic Bernoulli(p) outcome of the keyed
// draw x: the top 53 bits of x are compared against p.
func chance(p float64, x uint64) bool {
	return p > 0 && (p >= 1 || float64(x>>11)/(1<<53) < p)
}

// linkKey packs a directed link into one mix key. NodeIDs are
// non-negative and well below 2^32.
func linkKey(from, to radio.NodeID) uint64 {
	return uint64(from)<<32 | uint64(to)
}

// Nop is an embeddable no-op Channel: every hook passes through.
// Models embed it and override only the hooks they perturb. Nop does
// not implement radio.LinkOnlyChannel, because models that embed it may
// override Observe; a model that keeps Nop's Observe opts in itself.
type Nop struct{}

var _ radio.Channel = Nop{}

// RoundStart implements radio.Channel.
func (Nop) RoundStart(int64, []radio.NodeID) {}

// SuppressTransmit implements radio.Channel.
func (Nop) SuppressTransmit(int64, radio.NodeID) bool { return false }

// DropLink implements radio.Channel.
func (Nop) DropLink(int64, radio.NodeID, radio.NodeID) bool { return false }

// Observe implements radio.Channel.
func (Nop) Observe(_ int64, _ radio.NodeID, _ int, out radio.Outcome, ok bool) (radio.Outcome, bool) {
	return out, ok
}

// Erasure is the probabilistic packet-loss model: each (link, round)
// delivery is erased independently with probability P. Erasure can
// both starve a listener (its only transmitter dropped) and rescue one
// (a two-transmitter collision thinned to a clean reception), exactly
// like physical fading.
type Erasure struct {
	Nop
	// P is the per-link, per-round erasure probability.
	P    float64
	drop rng.Prefix // link draws Mix(seed, 0xe7a5, round, link)
}

// NewErasure returns an erasure channel with loss probability p.
func NewErasure(p float64, seed uint64) *Erasure {
	return &Erasure{P: p, drop: rng.NewPrefix(seed, 0xe7a5)}
}

// DropLink implements radio.Channel.
func (e *Erasure) DropLink(r int64, from, to radio.NodeID) bool {
	return chance(e.P, e.drop.Mix2(uint64(r), linkKey(from, to)))
}

// LinkOnly implements radio.LinkOnlyChannel: erasure acts only through
// DropLink.
func (*Erasure) LinkOnly() bool { return true }

var _ radio.LinkOnlyChannel = (*Erasure)(nil)

// NoisyCD models unreliable collision detection: a true collision
// symbol is missed — downgraded to silence — with probability Miss,
// and a silent reception is upgraded to a spurious ⊤ with probability
// Spurious, independently per (listener, round). Single-transmitter
// deliveries are untouched, so the model only matters to protocols
// that consume the ⊤ symbol: on a network without CD the engine
// sanitizes the spurious symbol back to silence and the model is a
// no-op.
type NoisyCD struct {
	Nop
	// Miss is the probability a true ⊤ is observed as silence.
	Miss float64
	// Spurious is the probability silence is observed as ⊤.
	Spurious float64

	missDraw     rng.Prefix // Mix(seed, 0x6d15, round, listener)
	spuriousDraw rng.Prefix // Mix(seed, 0x59c4, round, listener)
}

// NewNoisyCD returns an unreliable-CD channel.
func NewNoisyCD(miss, spurious float64, seed uint64) *NoisyCD {
	return &NoisyCD{Miss: miss, Spurious: spurious,
		missDraw: rng.NewPrefix(seed, 0x6d15), spuriousDraw: rng.NewPrefix(seed, 0x59c4)}
}

// Observe implements radio.Channel.
func (c *NoisyCD) Observe(r int64, to radio.NodeID, _ int, out radio.Outcome, ok bool) (radio.Outcome, bool) {
	switch {
	case ok && out.Collision:
		if chance(c.Miss, c.missDraw.Mix2(uint64(r), uint64(to))) {
			return radio.Outcome{}, false
		}
	case !ok:
		if chance(c.Spurious, c.spuriousDraw.Mix2(uint64(r), uint64(to))) {
			return radio.Outcome{Collision: true}, true
		}
	}
	return out, ok
}

// Jammer is a budgeted wide-band jammer: in a jammed round every
// listener's reception is destroyed — observed as ⊤ on a CD network,
// silence otherwise (the engine sanitizes the symbol). Two targeting
// policies share the budget accounting:
//
//   - oblivious (Adaptive=false): jam each round independently with
//     probability Rate, blind to the traffic;
//   - adaptive busiest-slot (Adaptive=true): snoop the transmitter set
//     in RoundStart and jam exactly the rounds with at least
//     MinTransmitters transmitters — budget is spent only where it
//     destroys real traffic. The engine hands RoundStart the
//     post-suppression transmitter set, so a jammer stacked after a
//     fault model never wastes budget on rounds whose only
//     transmitters are fault-dead radios.
//
// Each jammed round costs one unit of Budget; once spent, the jammer
// falls silent. A negative Budget is unlimited.
type Jammer struct {
	Nop
	// Budget is the total number of rounds the jammer may jam
	// (negative = unlimited).
	Budget int64
	// Rate is the oblivious per-round jam probability.
	Rate float64
	// Adaptive switches to the busiest-slot policy.
	Adaptive bool
	// MinTransmitters is the adaptive trigger threshold (minimum 1).
	MinTransmitters int

	seed    uint64
	spent   int64
	jamming bool
}

// NewJammer returns an oblivious jammer: jam each round with
// probability rate until budget rounds are spent.
func NewJammer(budget int64, rate float64, seed uint64) *Jammer {
	return &Jammer{Budget: budget, Rate: rate, seed: seed}
}

// NewAdaptiveJammer returns a busiest-slot jammer: jam every round
// with at least minTransmitters transmitters until budget rounds are
// spent.
func NewAdaptiveJammer(budget int64, minTransmitters int, seed uint64) *Jammer {
	return &Jammer{Budget: budget, Adaptive: true, MinTransmitters: minTransmitters, seed: seed}
}

// RoundStart implements radio.Channel.
func (j *Jammer) RoundStart(r int64, transmitters []radio.NodeID) {
	j.jamming = false
	if j.Budget >= 0 && j.spent >= j.Budget {
		return
	}
	if j.Adaptive {
		min := j.MinTransmitters
		if min < 1 {
			min = 1
		}
		j.jamming = len(transmitters) >= min
	} else {
		j.jamming = chance(j.Rate, rng.Mix(j.seed, 0x4a6d, uint64(r)))
	}
	if j.jamming {
		j.spent++
	}
}

// Observe implements radio.Channel.
func (j *Jammer) Observe(_ int64, _ radio.NodeID, _ int, out radio.Outcome, ok bool) (radio.Outcome, bool) {
	if j.jamming {
		return radio.Outcome{Collision: true}, true
	}
	return out, ok
}

// Spent reports how many rounds the jammer has jammed so far.
func (j *Jammer) Spent() int64 { return j.spent }

// Reset implements radio.ResettableChannel: it refunds the budget and
// clears the jamming latch, so one Jammer instance can be reused
// across seeded runs without silently draining. (The adaptive retry
// layer deliberately does not call it between epochs: a budget spans
// the adversary's whole engagement, not one epoch.)
func (j *Jammer) Reset() {
	j.spent = 0
	j.jamming = false
}

var _ radio.ResettableChannel = (*Jammer)(nil)

// Faults models per-node radio faults: a node's radio may start dead
// until a wake round (late wakeup) and die permanently at a crash
// round. A dead radio neither transmits nor hears; the protocol still
// runs (and is still polled) — only its channel access is cut, so
// round accounting and determinism are unaffected.
//
// Real packets to a dead radio are erased at the link level, so that
// guarantee holds in any Stack order; but a later observation-
// injecting model (NoisyCD spurious ⊤, Jammer) can still overwrite
// the silence Faults returns from Observe. Place Faults last in a
// Stack to keep dead radios fully deaf.
type Faults struct {
	Nop
	wakeAt  []int64 // radio dead before this round (0 = from the start)
	crashAt []int64 // radio dead at and after this round (-1 = never)
}

// NewFaults returns a fault table for n nodes with every radio
// healthy; program it with SetWake/SetCrash.
func NewFaults(n int) *Faults {
	f := &Faults{wakeAt: make([]int64, n), crashAt: make([]int64, n)}
	for v := range f.crashAt {
		f.crashAt[v] = -1
	}
	return f
}

// SetWake makes v's radio dead before round r (late wakeup).
func (f *Faults) SetWake(v radio.NodeID, r int64) { f.wakeAt[v] = r }

// SetCrash makes v's radio dead at and after round r.
func (f *Faults) SetCrash(v radio.NodeID, r int64) { f.crashAt[v] = r }

// RandomFaults derives a fault table from a seed: every node except
// the protected source independently wakes late (uniform in
// [1, maxDelay]) with probability lateFrac and crashes (uniform in
// [1, horizon]) with probability crashFrac.
func RandomFaults(n int, source radio.NodeID, lateFrac float64, maxDelay int64, crashFrac float64, horizon int64, seed uint64) *Faults {
	f := NewFaults(n)
	for v := 0; v < n; v++ {
		if radio.NodeID(v) == source {
			continue
		}
		if maxDelay > 0 && chance(lateFrac, rng.Mix(seed, 0x1a7e, uint64(v))) {
			f.wakeAt[v] = 1 + int64(rng.Mix(seed, 0xd31a, uint64(v))%uint64(maxDelay))
		}
		if horizon > 0 && chance(crashFrac, rng.Mix(seed, 0xc0a5, uint64(v))) {
			f.crashAt[v] = 1 + int64(rng.Mix(seed, 0xc0a6, uint64(v))%uint64(horizon))
		}
	}
	return f
}

func (f *Faults) dead(r int64, v radio.NodeID) bool {
	return r < f.wakeAt[v] || (f.crashAt[v] >= 0 && r >= f.crashAt[v])
}

// SuppressTransmit implements radio.Channel.
func (f *Faults) SuppressTransmit(r int64, v radio.NodeID) bool { return f.dead(r, v) }

// DropLink implements radio.Channel: a dead receiver's inbound links
// are erased, so no real packet reaches it regardless of how Observe
// hooks compose.
func (f *Faults) DropLink(r int64, _, to radio.NodeID) bool { return f.dead(r, to) }

// Observe implements radio.Channel.
func (f *Faults) Observe(r int64, to radio.NodeID, _ int, out radio.Outcome, ok bool) (radio.Outcome, bool) {
	if f.dead(r, to) {
		return radio.Outcome{}, false
	}
	return out, ok
}

// N returns the number of nodes the fault table was sized for. Job
// admission layers use it to reject a table that does not match the
// run's graph — every hook indexes wakeAt/crashAt by NodeID, so a
// short table panics mid-run on the first out-of-range node.
func (f *Faults) N() int { return len(f.wakeAt) }

// Reset implements radio.ResettableChannel as a deliberate no-op,
// recorded here as an audit: a fault table is pure configuration —
// wake and crash rounds, programmed once — with no per-run mutable
// state to rewind (dead() is a pure function of (round, node)). The
// method exists so harness runners that blanket-Reset their channel
// treat Faults uniformly with the stateful models instead of
// special-casing it.
func (f *Faults) Reset() {}

var _ radio.ResettableChannel = (*Faults)(nil)

// Stack composes models into one channel: suppression and link loss
// OR together, and the tentative observation flows through every
// model's Observe in order, so later models see (and may re-perturb)
// earlier models' output — an erasure-thinned reception can still be
// jammed, a jammer's ⊤ can still be missed by noisy CD. Order
// matters for exactly that reason: a model that silences a listener
// (Faults) should come after models that inject observations
// (Jammer, NoisyCD's spurious ⊤), or the injection resurrects the
// silenced listener.
type Stack []radio.Channel

var _ radio.Channel = Stack(nil)

// RoundStart implements radio.Channel.
func (s Stack) RoundStart(r int64, transmitters []radio.NodeID) {
	for _, m := range s {
		m.RoundStart(r, transmitters)
	}
}

// SuppressTransmit implements radio.Channel.
func (s Stack) SuppressTransmit(r int64, v radio.NodeID) bool {
	for _, m := range s {
		if m.SuppressTransmit(r, v) {
			return true
		}
	}
	return false
}

// DropLink implements radio.Channel.
func (s Stack) DropLink(r int64, from, to radio.NodeID) bool {
	for _, m := range s {
		if m.DropLink(r, from, to) {
			return true
		}
	}
	return false
}

// Observe implements radio.Channel.
func (s Stack) Observe(r int64, to radio.NodeID, count int, out radio.Outcome, ok bool) (radio.Outcome, bool) {
	for _, m := range s {
		out, ok = m.Observe(r, to, count, out, ok)
	}
	return out, ok
}

// LinkOnly implements radio.LinkOnlyChannel: a stack is link-only when
// it is non-empty and every member is.
func (s Stack) LinkOnly() bool {
	for _, m := range s {
		if !radio.IsLinkOnly(m) {
			return false
		}
	}
	return len(s) > 0
}

var _ radio.LinkOnlyChannel = Stack(nil)

// Reset implements radio.ResettableChannel by forwarding to every
// stacked model that is itself resettable, so a stack holding a
// Jammer is reusable across runs exactly like a bare Jammer.
func (s Stack) Reset() {
	for _, m := range s {
		radio.ResetChannel(m)
	}
}

var _ radio.ResettableChannel = Stack(nil)

// Offset presents a shifted round clock to an inner channel model: a
// hook invoked at engine round r reaches Inner as round r+Base. The
// adaptive retry layer (internal/adapt) re-executes a stack in epochs,
// and each epoch's network restarts its round counter at zero; wrapping
// the run's channel in an Offset whose Base is the rounds elapsed in
// earlier epochs lets the model see one continuous timeline — a
// late-wakeup fault table keeps a radio that woke in epoch 1 awake in
// epoch 2, and round-keyed randomness (erasure, noisy CD, oblivious
// jamming) draws fresh values each epoch instead of replaying the
// epoch-1 pattern.
//
// Offset deliberately does NOT forward Reset: rewinding the inner
// model's per-run state is the fresh-run boundary's job (epoch 0, on
// the unwrapped channel), never a mid-run epoch's.
type Offset struct {
	Inner radio.Channel
	Base  int64
}

var _ radio.Channel = (*Offset)(nil)

// NewOffset wraps inner with a round-clock shift of base.
func NewOffset(inner radio.Channel, base int64) *Offset {
	return &Offset{Inner: inner, Base: base}
}

// RoundStart implements radio.Channel.
func (o *Offset) RoundStart(r int64, transmitters []radio.NodeID) {
	o.Inner.RoundStart(r+o.Base, transmitters)
}

// SuppressTransmit implements radio.Channel.
func (o *Offset) SuppressTransmit(r int64, v radio.NodeID) bool {
	return o.Inner.SuppressTransmit(r+o.Base, v)
}

// DropLink implements radio.Channel.
func (o *Offset) DropLink(r int64, from, to radio.NodeID) bool {
	return o.Inner.DropLink(r+o.Base, from, to)
}

// Observe implements radio.Channel.
func (o *Offset) Observe(r int64, to radio.NodeID, count int, out radio.Outcome, ok bool) (radio.Outcome, bool) {
	return o.Inner.Observe(r+o.Base, to, count, out, ok)
}

// LinkOnly implements radio.LinkOnlyChannel by forwarding Inner's
// answer: shifting the round clock never changes what Observe does.
func (o *Offset) LinkOnly() bool { return radio.IsLinkOnly(o.Inner) }

var _ radio.LinkOnlyChannel = (*Offset)(nil)
