package assign

import (
	"math/rand"

	"radiocast/internal/decay"
	"radiocast/internal/radio"
	"radiocast/internal/recruit"
)

// Role distinguishes the two sides of a boundary.
type Role uint8

// Roles.
const (
	Red Role = iota + 1
	Blue
)

// Node is the per-node state machine for one boundary. Drive it with
// Act/Observe at boundary-local offsets in [0, Params.BoundaryRounds()).
//
// A node acting as Blue must know its own rank (computed from its red
// role at the boundary below, or 1 for leaves). A node acting as Red
// learns its rank during the run; ranks are final once the boundary
// completes (RedRanked/RedRank), with unranked reds becoming rank-1
// leaves unless a deeper boundary already ranked them.
type Node struct {
	p    Params
	ly   layout // cached schedule arithmetic (hot: every Act/Observe)
	id   NodeID
	role Role
	rng  *rand.Rand

	// Shared window tracking for lazy transitions.
	curRank  int
	curEpoch int

	// Blue state.
	blueRank   int32
	assigned   bool
	parent     NodeID
	parentRank int32
	tempBound  bool // temporarily matched for the remainder of the epoch
	isLoner    bool
	recB       *recruit.Blue
	recBWin    Window

	// Red state.
	ranked        bool
	redRank       int32
	sameRankChild bool // ranked via ClassOne: unique child shares the rank
	active        bool // activated by identification for the current rank
	markedAt      int  // epoch at which the red was marked (-1 = unmarked)
	lonerParent   bool
	brisk         bool
	recR          *recruit.Red
	recRWin       Window

	// ownTag tags this node's transmissions; peerTag is the expected
	// tag on counterpart packets (level mod 4 of the other side). Both
	// zero for a sequential construction, which never tags.
	ownTag  int32
	peerTag int32

	// Boxed packets reused across transmissions: ident/loner/ping are
	// constant per node, mop re-boxes only when the rank changes.
	identPkt radio.Packet
	lonerPkt radio.Packet
	pingPkt  radio.Packet
	mopPkt   radio.Packet
	mopRank  int32
}

// NewNode creates a boundary state machine.
//
// For Blue, blueRank is the node's (already known) rank. For Red,
// preRanked/preRank carry a rank assigned by a deeper boundary — the
// GST construction processes boundaries bottom-up, so a level-l node
// first acts as Red for boundary (l, l+1) and later as Blue for
// (l-1, l); here red ranks are always learned fresh, so preRanked is
// false in the composed construction and exists for testing.
func NewNode(p Params, id NodeID, role Role, blueRank int32, rng *rand.Rand) *Node {
	return NewTaggedNode(p, id, role, blueRank, rng, 0, 0)
}

// NewTaggedNode creates a boundary state machine scoped to (own, peer)
// level-mod-4 tags: own stamps every transmission, peer filters every
// counterpart reception. The pipelined construction (Section 2.2.4)
// uses tags to keep concurrently audible boundaries from
// cross-binding; the sequential construction passes both tags zero
// (as NewNode does), which reproduces the untagged protocol exactly.
func NewTaggedNode(p Params, id NodeID, role Role, blueRank int32, rng *rand.Rand, own, peer int32) *Node {
	nd := &Node{
		p:        p,
		ly:       p.layout(),
		id:       id,
		role:     role,
		rng:      rng,
		curRank:  -1,
		curEpoch: -1,
		blueRank: blueRank,
		parent:   -1,
		markedAt: -1,
		ownTag:   own,
		peerTag:  peer,
	}
	switch {
	case role == Blue:
		nd.identPkt = IdentPacket{Blue: id, Tag: own}
		nd.lonerPkt = LonerPacket{Blue: id, Tag: own}
	case own == 0:
		nd.pingPkt = untaggedPing
	default:
		nd.pingPkt = PingPacket{Tag: own}
	}
	return nd
}

// untaggedPing is the shared boxed zero-tag ping: ping contents don't
// depend on the node, so untagged boundaries never pay a per-node
// boxing for it.
var untaggedPing radio.Packet = PingPacket{}

// SetBlueRank updates the blue node's rank. The construction calls
// this at every rank-window start: under pipelining a blue's rank is
// learned incrementally by its red role at the boundary below, and the
// schedule skew guarantees any rank >= the window's rank is already
// final when the window opens (sequentially it is final from the
// start).
func (nd *Node) SetBlueRank(r int32) { nd.blueRank = r }

// Blue results.

// Assigned reports whether the blue node has a permanent parent.
func (nd *Node) Assigned() bool { return nd.assigned }

// Parent returns the blue node's parent (-1 if unassigned).
func (nd *Node) Parent() NodeID { return nd.parent }

// ParentRank returns the learned rank of the parent.
func (nd *Node) ParentRank() int32 { return nd.parentRank }

// Red results.

// RedRanked reports whether the red node received a rank.
func (nd *Node) RedRanked() bool { return nd.ranked }

// RedRank returns the red node's rank (valid when RedRanked).
func (nd *Node) RedRank() int32 { return nd.redRank }

// RedHasSameRankChild reports whether the red's unique maximal child
// shares its rank — exactly when the red was ranked with a single
// recruit (rank i via one rank-i child). This identifies non-terminal
// fast-stretch nodes for the schedules of Section 3.2 and Lemma 3.10.
func (nd *Node) RedHasSameRankChild() bool { return nd.sameRankChild }

// sync processes window transitions: finalizing recruiting runs that
// ended and resetting per-epoch / per-rank state.
func (nd *Node) sync(pos Pos) {
	if pos.Rank != nd.curRank {
		nd.finishRecruits(pos)
		nd.curRank = pos.Rank
		nd.curEpoch = -2 // force epoch reset below
		nd.active = false
		nd.markedAt = -1
	}
	if pos.Epoch != nd.curEpoch {
		nd.finishRecruits(pos)
		nd.curEpoch = pos.Epoch
		// Epoch start: dissolve temporary matches, reset stage I state,
		// flip the brisk/lazy coin.
		nd.tempBound = false
		nd.isLoner = false
		nd.lonerParent = false
		nd.brisk = nd.rng.Intn(2) == 0
	}
	// Finalize a recruiting run when its window has passed.
	if nd.recB != nil && pos.Win != nd.recBWin {
		nd.finishBlueRecruit()
	}
	if nd.recR != nil && pos.Win != nd.recRWin {
		nd.finishRedRecruit()
	}
}

// finishRecruits force-finalizes any outstanding run (rank or epoch
// boundary crossed, including jumps over windows).
func (nd *Node) finishRecruits(Pos) {
	if nd.recB != nil {
		nd.finishBlueRecruit()
	}
	if nd.recR != nil {
		nd.finishRedRecruit()
	}
}

func (nd *Node) finishBlueRecruit() {
	b, win := nd.recB, nd.recBWin
	nd.recB = nil
	if !b.Recruited() {
		return
	}
	i := int32(nd.curRank)
	switch {
	case win == WinPart1:
		// Loner-parent assignments are always permanent.
		nd.assigned = true
		nd.parent = b.Parent()
		if b.ParentClass() == recruit.ClassMany {
			nd.parentRank = i + 1
		} else {
			nd.parentRank = i
		}
	case b.ParentClass() == recruit.ClassMany:
		// Not an only child: permanent, parent rank i+1.
		nd.assigned = true
		nd.parent = b.Parent()
		nd.parentRank = i + 1
	default:
		// Only child: temporarily matched for this epoch.
		nd.tempBound = true
	}
}

func (nd *Node) finishRedRecruit() {
	r, win := nd.recR, nd.recRWin
	nd.recR = nil
	i := int32(nd.curRank)
	switch {
	case win == WinPart1:
		// Loner-parents are always marked; rank by recruit count.
		nd.markedAt = nd.curEpoch
		nd.ranked = true
		if r.Class() == recruit.ClassMany {
			nd.redRank = i + 1
		} else {
			nd.redRank = i
			nd.sameRankChild = true
		}
	case r.Class() == recruit.ClassMany:
		nd.markedAt = nd.curEpoch
		nd.ranked = true
		nd.redRank = i + 1
	case r.Class() == recruit.ClassZero:
		// Recruited nothing: marked and inactive, but unranked.
		nd.markedAt = nd.curEpoch
	default:
		// Exactly one recruit: temporary match; stay active.
	}
}

// blueActive reports whether the blue participates in the current
// rank's epochs.
func (nd *Node) blueActive(pos Pos) bool {
	return !nd.assigned && int32(pos.Rank) == nd.blueRank && !nd.tempBound
}

// redActive reports whether the red participates in the current epoch.
func (nd *Node) redActive() bool {
	return nd.active && !nd.ranked && nd.markedAt < 0
}

// Act drives the node at boundary-local offset off.
func (nd *Node) Act(off int64) radio.Action {
	pos := nd.ly.locate(off)
	nd.sync(pos)
	if nd.role == Blue {
		return nd.blueAct(pos)
	}
	return nd.redAct(pos)
}

// Observe drives the node with the outcome at offset off.
func (nd *Node) Observe(off int64, out radio.Outcome) {
	pos := nd.ly.locate(off)
	nd.sync(pos)
	if nd.role == Blue {
		nd.blueObserve(pos, out)
	} else {
		nd.redObserve(pos, out)
	}
}

func (nd *Node) blueAct(pos Pos) radio.Action {
	switch pos.Win {
	case WinIdent:
		if !nd.assigned && int32(pos.Rank) == nd.blueRank {
			slot := int(pos.Off) % nd.p.L
			if nd.rng.Float64() < decay.TransmitProb(slot) {
				return radio.Transmit(nd.identPkt)
			}
		}
	case WinLoner:
		if nd.blueActive(pos) && nd.isLoner {
			slot := int(pos.Off) % nd.p.L
			if nd.rng.Float64() < decay.TransmitProb(slot) {
				return radio.Transmit(nd.lonerPkt)
			}
		}
	case WinPart1, WinPart2, WinPart3:
		if nd.recB == nil && pos.Off == 0 && nd.blueActive(pos) {
			nd.recB = recruit.NewBlue(nd.p.Rec, nd.id, nd.rng)
			nd.recB.SetWantTag(nd.peerTag)
			nd.recBWin = pos.Win
		}
		if nd.recB != nil && nd.recBWin == pos.Win {
			return nd.recB.Act(pos.Off)
		}
	}
	return radio.Listen
}

func (nd *Node) blueObserve(pos Pos, out radio.Outcome) {
	switch pos.Win {
	case WinPing:
		// A clean message means exactly one active red: a loner.
		if nd.blueActive(pos) && out.Packet != nil {
			if ping, ok := out.Packet.(PingPacket); ok && ping.Tag == nd.peerTag {
				nd.isLoner = true
			}
		}
	case WinPart1, WinPart2, WinPart3:
		if nd.recB != nil && nd.recBWin == pos.Win {
			nd.recB.Observe(pos.Off, out)
		}
	case WinMop:
		if nd.assigned || nd.tempBound {
			return
		}
		if mop, ok := out.Packet.(MopPacket); ok && mop.Tag == nd.peerTag && mop.Rank > nd.blueRank {
			nd.assigned = true
			nd.parent = mop.Red
			nd.parentRank = mop.Rank
		}
	}
}

func (nd *Node) redAct(pos Pos) radio.Action {
	switch pos.Win {
	case WinPing:
		if nd.redActive() && pos.Off == 0 {
			return radio.Transmit(nd.pingPkt)
		}
	case WinPart1:
		if nd.recR == nil && pos.Off == 0 && nd.redActive() && nd.lonerParent {
			nd.recR = recruit.NewRed(nd.p.Rec, nd.id, nd.rng)
			nd.recR.SetTag(nd.ownTag)
			nd.recRWin = pos.Win
		}
		if nd.recR != nil && nd.recRWin == pos.Win {
			return nd.recR.Act(pos.Off)
		}
	case WinPart2, WinPart3:
		wantBrisk := pos.Win == WinPart2
		if nd.recR == nil && pos.Off == 0 && nd.redActive() && !nd.lonerParent && nd.brisk == wantBrisk {
			nd.recR = recruit.NewRed(nd.p.Rec, nd.id, nd.rng)
			nd.recR.SetTag(nd.ownTag)
			nd.recRWin = pos.Win
		}
		if nd.recR != nil && nd.recRWin == pos.Win {
			return nd.recR.Act(pos.Off)
		}
	case WinMop:
		if nd.mopEligible(pos) {
			slot := int(pos.Off) % nd.p.L
			if nd.rng.Float64() < decay.TransmitProb(slot) {
				if nd.mopPkt == nil || nd.mopRank != nd.redRank {
					nd.mopPkt = MopPacket{Red: nd.id, Rank: nd.redRank, Tag: nd.ownTag}
					nd.mopRank = nd.redRank
				}
				return radio.Transmit(nd.mopPkt)
			}
		}
	}
	return radio.Listen
}

// mopEligible reports whether the red broadcasts in the current mop
// window: it was marked-with-rank in this very epoch (rank i or i+1).
func (nd *Node) mopEligible(pos Pos) bool {
	return nd.markedAt == pos.Epoch && nd.ranked &&
		(nd.redRank == int32(pos.Rank) || nd.redRank == int32(pos.Rank)+1)
}

func (nd *Node) redObserve(pos Pos, out radio.Outcome) {
	switch pos.Win {
	case WinIdent:
		if nd.ranked {
			return
		}
		if ident, ok := out.Packet.(IdentPacket); ok && ident.Tag == nd.peerTag {
			nd.active = true
		}
	case WinLoner:
		if !nd.redActive() {
			return
		}
		if loner, ok := out.Packet.(LonerPacket); ok && loner.Tag == nd.peerTag {
			nd.lonerParent = true
		}
	case WinPart1, WinPart2, WinPart3:
		if nd.recR != nil && nd.recRWin == pos.Win {
			nd.recR.Observe(pos.Off, out)
		}
	}
}
