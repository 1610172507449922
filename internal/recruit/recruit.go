// Package recruit implements the Recruiting protocol of Lemma 2.3: on
// a bipartite graph H between red and blue nodes (in our use, two
// consecutive BFS levels), it achieves w.h.p. in Θ(log^3 n) rounds:
//
//	(a) every blue node is assigned an adjacent red parent;
//	(b) every red node knows whether it recruited zero, one, or at
//	    least two blue nodes;
//	(c) every recruited blue node knows whether its parent recruited
//	    exactly one (itself) or at least two blue nodes.
//
// Structure (Section 2.2.1): Θ(log^2 n) recruiting iterations, each of
// 2 + Θ(log n) rounds:
//
//	round 0   red offer:   each red transmits its id with probability
//	                       2^-(g+1), where g sweeps the densities (one
//	                       density block per Θ(log n) iterations);
//	rounds 1..L  blue decay: each unrecruited blue that received a red
//	                       offer reports (blue.id, red.id) with Decay
//	                       probabilities;
//	round L+1 red ack:     every red that transmitted in round 0
//	                       repeats that transmission exactly — so every
//	                       blue that heard the offer also hears the ack
//	                       — carrying: ONE(u) if exactly one blue
//	                       reported, MANY if two or more, EMPTY if none.
//
// An ONE(u) ack recruits exactly u; a MANY ack recruits every
// unrecruited blue that received the round-0 offer.
//
// Deviation from the paper (documented in DESIGN.md): the paper lets a
// blue recruited via ONE(u) conclude "my parent has exactly one child",
// but the red may recruit more blues in later iterations, making that
// belief stale — which would corrupt the rank computation in the GST
// assignment (property (c) feeds Stage III ranking). We therefore
// append a commitment phase of one replay round per iteration: every
// red repeats its round-0 transmission pattern of iteration j carrying
// its final class (ZERO/ONE/MANY) and, for ONE, the id of its unique
// recruit. The deterministic repetition recreates the exact collision
// pattern of round 0, so each recruited blue is guaranteed to hear its
// parent's final class. This adds Θ(log^2 n) rounds — within the
// Θ(log^3 n) budget of Lemma 2.3.
package recruit

import (
	"fmt"
	"math/rand"

	"radiocast/internal/decay"
	"radiocast/internal/radio"
	"radiocast/internal/sched"
)

// Class is a red node's recruit count classification.
type Class uint8

// Classes of recruit counts (property (b) of Lemma 2.3).
const (
	ClassZero Class = iota + 1
	ClassOne
	ClassMany
)

// String renders the class.
func (c Class) String() string {
	switch c {
	case ClassZero:
		return "zero"
	case ClassOne:
		return "one"
	case ClassMany:
		return "many"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Params fixes the schedule of one recruiting run.
type Params struct {
	// L is the Decay phase length ⌈log2 n⌉ and the number of offer
	// densities swept (probabilities 1/2 .. 2^-L).
	L int
	// C scales the Θ(log n) iterations spent on each offer density:
	// C·L of them.
	C int
}

// DefaultParams returns the schedule for network size n with constant
// multiplier c (the Θ(log n) iterations-per-density constant).
func DefaultParams(n, c int) Params {
	return Params{L: sched.LogN(n), C: max(c, 1)}
}

// Iterations returns the number of recruiting iterations T.
func (p Params) Iterations() int { return p.C * p.L * p.L }

// IterLen returns the rounds per iteration: offer + L decay + ack.
func (p Params) IterLen() int { return p.L + 2 }

// Rounds returns the total length of a recruiting run, including the
// commitment (replay) phase of one round per iteration.
func (p Params) Rounds() int64 {
	t := int64(p.Iterations())
	return t*int64(p.IterLen()) + t
}

// offerProb returns the red transmission probability for iteration j.
func (p Params) offerProb(iter int) float64 {
	g := iter / (p.C * p.L)
	if g >= p.L {
		g = p.L - 1
	}
	return 1 / float64(int64(2)<<uint(g))
}

// position decomposes an in-run offset into its schedule position.
type position struct {
	replay bool
	iter   int // iteration index (both phases)
	slot   int // 0 = offer, 1..L = decay slots, L+1 = ack (iteration phase)
}

func (p Params) locate(off int64) position {
	t := int64(p.Iterations())
	iterPhase := t * int64(p.IterLen())
	if off < iterPhase {
		return position{iter: int(off / int64(p.IterLen())), slot: int(off % int64(p.IterLen()))}
	}
	return position{replay: true, iter: int(off - iterPhase)}
}

// Packets.

// Offer is the red round-0 transmission. Tag scopes the offer when
// several recruiting runs are audible at once (the pipelined boundary
// construction of Section 2.2.4 runs same-parity boundaries
// concurrently; boundaries within hearing distance carry distinct
// level-mod-4 tags): a blue accepts only offers whose tag matches its
// expected red level. Tag 0 everywhere reproduces the untagged
// protocol exactly.
type Offer struct {
	Red radio.NodeID
	Tag int32
}

// Bits implements radio.Packet.
func (Offer) Bits() int { return 34 }

// Report is the blue decay-phase transmission (u.id, v.id).
type Report struct {
	Blue, Red radio.NodeID
}

// Bits implements radio.Packet.
func (Report) Bits() int { return 64 }

// Ack is the red end-of-iteration transmission: the iteration-local
// recruit decision.
type Ack struct {
	Red   radio.NodeID
	Class Class        // ClassZero = empty message
	Only  radio.NodeID // recruit id when Class == ClassOne
}

// Bits implements radio.Packet.
func (Ack) Bits() int { return 72 }

// Final is the commitment-phase transmission: the red's final class.
type Final struct {
	Red   radio.NodeID
	Class Class
	Only  radio.NodeID
}

// Bits implements radio.Packet.
func (Final) Bits() int { return 72 }

// Red is the red-side state machine. Drive it with Act/Observe using
// offsets in [0, Params.Rounds()); after that the run is complete and
// Class()/OnlyChild() are valid.
type Red struct {
	params Params
	id     radio.NodeID
	rng    *rand.Rand

	transmitted []bool // round-0 choice per iteration, for ack + replay

	// Current-iteration reporter tracking.
	curIter       int
	firstReporter radio.NodeID
	reporterCount int // saturates at 2

	// Accumulated recruitment outcome.
	oneIters  int
	manyIters bool
	onlyChild radio.NodeID

	// tag scopes this red's offers (see Offer.Tag); zero by default.
	tag int32

	// Boxed packets reused across transmissions: the offer is constant
	// for the run, the final is constant across the whole replay phase.
	offerPkt radio.Packet
	finalPkt radio.Packet
}

// NewRed creates the red-side machine for node id.
func NewRed(p Params, id radio.NodeID, rng *rand.Rand) *Red {
	return &Red{
		params:        p,
		id:            id,
		rng:           rng,
		transmitted:   make([]bool, p.Iterations()),
		curIter:       -1,
		firstReporter: -1,
		onlyChild:     -1,
		offerPkt:      Offer{Red: id},
	}
}

// SetTag scopes the red's offers to tag (call before the run starts).
// A no-op at the current tag, so untagged (sequential) callers never
// pay the re-boxing.
func (r *Red) SetTag(tag int32) {
	if tag == r.tag {
		return
	}
	r.tag = tag
	r.offerPkt = Offer{Red: r.id, Tag: tag}
}

// Class returns the final recruit classification (valid after the run).
func (r *Red) Class() Class {
	switch {
	case r.manyIters || r.oneIters >= 2:
		return ClassMany
	case r.oneIters == 1:
		return ClassOne
	default:
		return ClassZero
	}
}

// OnlyChild returns the unique recruit when Class() == ClassOne.
func (r *Red) OnlyChild() radio.NodeID { return r.onlyChild }

func (r *Red) beginIter(iter int) {
	if iter != r.curIter {
		r.curIter = iter
		r.firstReporter = -1
		r.reporterCount = 0
	}
}

// Act drives the machine at in-run offset off.
func (r *Red) Act(off int64) radio.Action {
	pos := r.params.locate(off)
	if pos.replay {
		if !r.transmitted[pos.iter] {
			return radio.Listen
		}
		if r.finalPkt == nil {
			// The accumulated outcome is frozen once the replay phase
			// starts, so the final packet boxes once.
			r.finalPkt = Final{Red: r.id, Class: r.Class(), Only: r.onlyChild}
		}
		return radio.Transmit(r.finalPkt)
	}
	r.beginIter(pos.iter)
	switch {
	case pos.slot == 0:
		r.transmitted[pos.iter] = r.rng.Float64() < r.params.offerProb(pos.iter)
		if r.transmitted[pos.iter] {
			return radio.Transmit(r.offerPkt)
		}
		return radio.Listen
	case pos.slot == r.params.L+1:
		if !r.transmitted[pos.iter] {
			return radio.Listen
		}
		ack := Ack{Red: r.id, Class: ClassZero, Only: -1}
		switch r.reporterCount {
		case 0:
			// empty message: preserve the collision pattern
		case 1:
			ack.Class = ClassOne
			ack.Only = r.firstReporter
			r.oneIters++
			if r.oneIters == 1 {
				r.onlyChild = r.firstReporter
			}
		default:
			ack.Class = ClassMany
			r.manyIters = true
		}
		return radio.Transmit(ack)
	default:
		return radio.Listen // decay slots: reds listen for reports
	}
}

// Observe drives the machine with the outcome at offset off.
func (r *Red) Observe(off int64, out radio.Outcome) {
	pos := r.params.locate(off)
	if pos.replay || pos.slot == 0 || pos.slot == r.params.L+1 {
		return
	}
	rep, ok := out.Packet.(Report)
	if !ok || rep.Red != r.id {
		return
	}
	r.beginIter(pos.iter)
	if r.reporterCount == 0 {
		r.firstReporter = rep.Blue
		r.reporterCount = 1
	} else if rep.Blue != r.firstReporter {
		r.reporterCount = 2
	}
}

// Blue is the blue-side state machine.
type Blue struct {
	params Params
	id     radio.NodeID
	rng    *rand.Rand

	// Current-iteration offer.
	curIter   int
	offerFrom radio.NodeID

	// wantTag is the expected tag on incoming offers (see Offer.Tag);
	// zero by default.
	wantTag int32

	// Recruitment outcome.
	parent      radio.NodeID
	recruitIter int
	parentClass Class // final (after commitment phase)

	// reportPkt is the boxed report for the current offer (re-boxed
	// only when the offering red changes).
	reportPkt radio.Packet
	reportFor radio.NodeID
}

// NewBlue creates the blue-side machine for node id.
func NewBlue(p Params, id radio.NodeID, rng *rand.Rand) *Blue {
	return &Blue{
		params:      p,
		id:          id,
		rng:         rng,
		curIter:     -1,
		offerFrom:   -1,
		parent:      -1,
		recruitIter: -1,
	}
}

// SetWantTag restricts the blue to offers carrying tag (call before
// the run starts).
func (b *Blue) SetWantTag(tag int32) { b.wantTag = tag }

// Recruited reports whether the node has a parent.
func (b *Blue) Recruited() bool { return b.parent >= 0 }

// Parent returns the assigned red parent (-1 if none).
func (b *Blue) Parent() radio.NodeID { return b.parent }

// ParentClass returns the parent's final class as learned in the
// commitment phase: ClassOne means this blue is the parent's only
// recruit; ClassMany means the parent recruited at least two. Zero
// value 0 means the commitment message was never received (a protocol
// failure the caller can detect).
func (b *Blue) ParentClass() Class { return b.parentClass }

func (b *Blue) beginIter(iter int) {
	if iter != b.curIter {
		b.curIter = iter
		b.offerFrom = -1
	}
}

// Act drives the machine at in-run offset off.
func (b *Blue) Act(off int64) radio.Action {
	pos := b.params.locate(off)
	if pos.replay {
		return radio.Listen
	}
	b.beginIter(pos.iter)
	if pos.slot >= 1 && pos.slot <= b.params.L {
		// Decay slot: report if unrecruited and offered-to.
		if b.Recruited() || b.offerFrom < 0 {
			return radio.Listen
		}
		if b.rng.Float64() < decay.TransmitProb(pos.slot-1) {
			if b.reportPkt == nil || b.reportFor != b.offerFrom {
				b.reportPkt = Report{Blue: b.id, Red: b.offerFrom}
				b.reportFor = b.offerFrom
			}
			return radio.Transmit(b.reportPkt)
		}
	}
	return radio.Listen
}

// Observe drives the machine with the outcome at offset off.
func (b *Blue) Observe(off int64, out radio.Outcome) {
	if out.Packet == nil {
		return
	}
	pos := b.params.locate(off)
	if pos.replay {
		if fin, ok := out.Packet.(Final); ok && pos.iter == b.recruitIter && fin.Red == b.parent {
			b.parentClass = fin.Class
		}
		return
	}
	b.beginIter(pos.iter)
	switch pkt := out.Packet.(type) {
	case Offer:
		if pos.slot == 0 && pkt.Tag == b.wantTag {
			b.offerFrom = pkt.Red
		}
	case Ack:
		if pos.slot != b.params.L+1 || b.Recruited() || b.offerFrom < 0 || pkt.Red != b.offerFrom {
			return
		}
		switch pkt.Class {
		case ClassOne:
			if pkt.Only == b.id {
				b.parent = pkt.Red
				b.recruitIter = pos.iter
			}
		case ClassMany:
			b.parent = pkt.Red
			b.recruitIter = pos.iter
		}
	}
}
