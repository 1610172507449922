// Package assign implements the distributed Bipartite Assignment
// algorithm of Section 2.2.3 — the core of the distributed GST
// construction (Theorem 2.1). It assigns every blue node (BFS level l)
// a red parent (level l-1) such that the resulting parent-child pairs
// satisfy the six properties of the Bipartite Assignment Problem: all
// blues assigned, red ranks follow the ranking rule, the assignment is
// collision-free, and both endpoints know ids and ranks.
//
// Schedule for one boundary (all lengths are fixed functions of n, so
// every node derives its position from the round offset alone):
//
//	for rank i = ⌈log n⌉ .. 1:
//	  identification  Θ(log^2 n): unassigned rank-i blues run Decay
//	                  phases; reds that hear anything activate.
//	  for epoch e = 1 .. Θ(log n):
//	    stage I       1 round: active reds ping (a blue hearing a
//	                  clean message has exactly one active red — a
//	                  loner); then Θ(log^2 n) rounds of Decay where
//	                  loners announce themselves (reds that hear one
//	                  become loner-parents).
//	    stage II      three Recruiting runs (Lemma 2.3):
//	                  part 1: loner-parents recruit; assignments are
//	                          permanent.
//	                  part 2: brisk reds (coin flip) recruit; a blue
//	                          that is not an only child binds
//	                          permanently, an only child temporarily.
//	                  part 3: as part 2 with lazy reds.
//	    stage III     marking: loner-parents and reds that recruited
//	                  zero or ≥2 become inactive; those with children
//	                  take rank i (one child) or i+1 (≥2) and
//	                  broadcast (id, rank) in Θ(log^2 n) Decay rounds;
//	                  unassigned blues of lower rank adopt the first
//	                  such red heard (mop-up).
//
// Collision detection is not required (Theorem 2.1 holds without it):
// in stage I silence unambiguously means "two or more active reds",
// because an unassigned blue always has at least one active red
// neighbor.
package assign

import (
	"fmt"

	"radiocast/internal/radio"
	"radiocast/internal/recruit"
	"radiocast/internal/sched"
)

// NodeID aliases radio.NodeID.
type NodeID = radio.NodeID

// Params fixes the boundary schedule. All Θ(·) constants are explicit.
type Params struct {
	// L is ⌈log2 n⌉.
	L int
	// C is the Θ-constant of every phase count: C·L Decay phases each
	// for identification, loner announcement and the stage III
	// broadcast, and C·L epochs per rank.
	C int
	// EpochsOverride, when positive, fixes the absolute number of
	// epochs per rank regardless of C. Used by the Lemma 2.4
	// shrinkage experiment (E5) to starve the schedule deliberately.
	EpochsOverride int
	// Rec is the recruiting sub-protocol schedule.
	Rec recruit.Params
}

// DefaultParams returns the schedule for network size n with a global
// Θ-constant c applied to every phase count.
func DefaultParams(n, c int) Params {
	return Params{L: sched.LogN(n), C: max(c, 1), Rec: recruit.DefaultParams(n, c)}
}

// Window identifies a schedule segment within a rank's processing.
type Window uint8

// Windows of the per-rank schedule.
const (
	WinIdent Window = iota + 1
	WinPing
	WinLoner
	WinPart1
	WinPart2
	WinPart3
	WinMop
)

// Pos is a located schedule position.
type Pos struct {
	Rank  int // processing rank i (MaxRank() down to 1)
	Epoch int // epoch index within the rank (-1 during WinIdent)
	Win   Window
	Off   int64 // offset within the window
}

// decayLen is the length of C·L Decay phases of L rounds each: one
// identification, loner-announcement or stage III broadcast segment.
func (p Params) decayLen() int64 { return int64(p.C) * int64(p.L) * int64(p.L) }

// EpochLen returns the rounds per epoch.
func (p Params) EpochLen() int64 {
	return 1 + 2*p.decayLen() + 3*p.Rec.Rounds()
}

// Epochs returns the epochs per rank.
func (p Params) Epochs() int {
	if p.EpochsOverride > 0 {
		return p.EpochsOverride
	}
	return p.C * p.L
}

// MaxRank returns the largest processed rank, ⌈log n⌉ (+1 slack for
// the i+1 promotions at the top rank).
func (p Params) MaxRank() int { return p.L + 1 }

// RankLen returns the rounds spent per rank.
func (p Params) RankLen() int64 { return p.decayLen() + int64(p.Epochs())*p.EpochLen() }

// BoundaryRounds returns the total rounds for one boundary.
func (p Params) BoundaryRounds() int64 { return int64(p.MaxRank()) * p.RankLen() }

// layout is the precomputed form of a Params' schedule arithmetic.
// Locate runs for every boundary node in every round (Act and
// Observe), and recomputing the length chain — RankLen → EpochLen →
// Rec.Rounds → ... — dominated full-sweep CPU profiles
// (assign.Params.RankLen alone was ~27% of flat samples); nodes cache
// a layout at construction instead.
type layout struct {
	decayLen int64 // identification, loner and mop segments
	epochLen int64
	recLen   int64
	rankLen  int64
	boundary int64
	maxRank  int
}

// layout precomputes the Params' schedule lengths.
func (p Params) layout() layout {
	ly := layout{
		decayLen: p.decayLen(),
		epochLen: p.EpochLen(),
		recLen:   p.Rec.Rounds(),
		rankLen:  p.RankLen(),
		maxRank:  p.MaxRank(),
	}
	ly.boundary = int64(ly.maxRank) * ly.rankLen
	return ly
}

// locate maps a boundary-local offset to its schedule position using
// the cached lengths.
func (ly layout) locate(off int64) Pos {
	if off < 0 || off >= ly.boundary {
		panic(fmt.Sprintf("assign: offset %d outside boundary [0,%d)", off, ly.boundary))
	}
	rankIdx := off / ly.rankLen
	rank := ly.maxRank - int(rankIdx)
	rem := off % ly.rankLen
	if rem < ly.decayLen {
		return Pos{Rank: rank, Epoch: -1, Win: WinIdent, Off: rem}
	}
	rem -= ly.decayLen
	epoch := int(rem / ly.epochLen)
	rem %= ly.epochLen
	if rem < 1 {
		return Pos{Rank: rank, Epoch: epoch, Win: WinPing, Off: rem}
	}
	rem--
	if rem < ly.decayLen {
		return Pos{Rank: rank, Epoch: epoch, Win: WinLoner, Off: rem}
	}
	rem -= ly.decayLen
	for part := 0; part < 3; part++ {
		if rem < ly.recLen {
			return Pos{Rank: rank, Epoch: epoch, Win: WinPart1 + Window(part), Off: rem}
		}
		rem -= ly.recLen
	}
	return Pos{Rank: rank, Epoch: epoch, Win: WinMop, Off: rem}
}

// Packets.
//
// Every boundary packet carries a 2-bit Tag: the transmitter's BFS
// level mod 4. With sequential boundaries only one boundary is ever
// audible and the tags are all zero (byte-identical to the untagged
// protocol). Under the pipelined construction of Section 2.2.4,
// same-parity boundaries run concurrently and a node can overhear the
// boundary two levels away; levels within hearing distance differ by
// exactly 2, so a mod-4 level tag is necessary and sufficient for a
// receiver to discard cross-boundary packets (it expects its
// counterpart level's tag). Collisions across boundaries remain — they
// only cost probabilistic progress, which the Θ(·) constants absorb —
// but tagged filtering makes cross-boundary *bindings* impossible.

// IdentPacket is a rank-identification transmission by a blue node.
type IdentPacket struct {
	Blue NodeID
	Tag  int32
}

// Bits implements radio.Packet.
func (IdentPacket) Bits() int { return 34 }

// PingPacket is the stage I transmission of every active red.
type PingPacket struct{ Tag int32 }

// Bits implements radio.Packet.
func (PingPacket) Bits() int { return 3 }

// LonerPacket is a loner blue's announcement.
type LonerPacket struct {
	Blue NodeID
	Tag  int32
}

// Bits implements radio.Packet.
func (LonerPacket) Bits() int { return 34 }

// MopPacket is the stage III (id, rank) broadcast of a marked red.
type MopPacket struct {
	Red  NodeID
	Rank int32
	Tag  int32
}

// Bits implements radio.Packet.
func (MopPacket) Bits() int { return 42 }
