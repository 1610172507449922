// Package gstdist implements the distributed GST construction of
// Theorem 2.1 together with the virtual-distance learning of
// Lemma 3.10. The protocol is fully distributed: each node ends up
// knowing its BFS level, its rank, its parent's id and rank, and
// (optionally) its virtual distance in G' — everything the broadcast
// schedules of Sections 2.3 and 3.2 require.
//
// Schedule (global, derived from the round number alone):
//
//	segment A  BFS layering: either the O(D) collision wave of
//	           Theorem 1.1 (requires CD), the O(D log^2 n) Decay
//	           layering of Section 2.2.2 (no CD), or preset levels
//	           (rings reuse the global wave).
//	segment B  one Bipartite Assignment boundary (internal/assign) per
//	           level, deepest first. Time is split into rank-length
//	           phases, and each boundary processes its ranks, MaxRank
//	           down to 1, in a window of phases. The two schedules
//	           differ only in that window (Config.window), and one
//	           implementation runs both. Sequential (default): boundary
//	           b opens at phase b·MaxRank, when b-1 closes, and takes
//	           one rank per phase, O(D log^5 n). Pipelined
//	           (Config.PipelinedBoundaries, Section 2.2.4): boundary b
//	           opens at phase 3b and takes one rank every second phase,
//	           so phases alternate between even and odd boundaries and
//	           all in-window same-parity boundaries run concurrently,
//	           O((D + log n) log^4 n).
//	segment C  virtual distances (Lemma 3.10): for d = 0..2⌈log n⌉,
//	           stage 1 pipelines a wave down the fast stretches of
//	           each rank class (2(D+1) rounds per rank), stage 2 runs
//	           Θ(log^2 n) Decay rounds from the d-frontier.
//
// Deviation (documented in DESIGN.md): the paper's stage-1 recursion
// propagates the wave only through nodes that were freshly labeled
// d+1, so a stretch whose interior was labeled in an earlier iteration
// blocks the wave and deeper stretch nodes can end up overestimating
// their virtual distance. Our stage 1 lets already-labeled stretch
// nodes relay the wave without adopting the label, which preserves the
// exact BFS order of G'.
package gstdist

import (
	"fmt"

	"radiocast/internal/assign"
	"radiocast/internal/decay"
	"radiocast/internal/sched"
)

// LayerMode selects how segment A learns BFS levels.
type LayerMode uint8

// Layer modes.
const (
	// LayerCD uses the collision wave (needs collision detection).
	LayerCD LayerMode = iota + 1
	// LayerDecay uses Decay-based layering (no CD, O(D log^2 n)).
	LayerDecay
	// LayerPreset skips segment A; levels are supplied by the caller.
	LayerPreset
)

// Config fixes the construction schedule.
type Config struct {
	// N is the (polynomial upper bound on) network size from which all
	// logarithmic schedule lengths derive.
	N int
	// DBound is an upper bound on the source eccentricity: the number
	// of boundaries processed and the wave horizon.
	DBound int
	// Mode selects the layering mechanism.
	Mode LayerMode
	// Assign is the per-boundary schedule. Its Θ-constant C also scales
	// the Decay-layering phases per epoch (3C, LayerDecay) and the
	// stage-2 Decay phases of segment C (C·L).
	Assign assign.Params
	// WithVdist appends segment C (Lemma 3.10).
	WithVdist bool
	// Tag scopes segment-C packets when several constructions run in
	// parallel on adjacent regions (the rings of Theorems 1.1/1.3):
	// nodes discard Wave/Flood packets whose tag differs. Adjacent
	// rings use different parities, so one bit of tag suffices.
	Tag int32
	// PipelinedBoundaries switches segment B to the even/odd pipelined
	// schedule of Section 2.2.4: phases of one rank-length each, phase
	// p driving the boundaries of parity p mod 2 that are inside their
	// processing window. Boundary b starts at phase 3b — the skew of 3
	// is the exact dependency margin: a red ranked i (or promoted to
	// i+1) at boundary b-1's rank-i window must know that rank before
	// boundary b's rank-i (resp. rank-(i+1)) window opens, and both
	// follow boundary b-1's rank-i window by >= 1 phase at skew 3.
	// Same-parity boundaries within hearing distance (levels exactly 2
	// apart) are disambiguated by level-mod-4 packet tags
	// (assign.NewTaggedNode); cross-boundary collisions remain but only
	// cost probabilistic progress. Segment B shrinks from
	// D·MaxRank rank-lengths to 3D + 2·MaxRank - 4 (strictly fewer for
	// every D >= 3 at MaxRank >= 3).
	PipelinedBoundaries bool
	// TagBase offsets the level-mod-4 boundary tags of a pipelined
	// segment B (sequential boundaries stay untagged). Standalone
	// constructions leave it 0; the rings of Theorems 1.1/1.3 set each
	// ring's base to (ring·W) mod 4 so tags are globally consistent
	// across ring borders even though each ring's construction runs on
	// local levels.
	TagBase int32
}

// DefaultConfig returns a construction schedule for size n, diameter
// bound d, with the global Θ-constant c.
func DefaultConfig(n, d, c int, mode LayerMode, withVdist bool) Config {
	return Config{
		N:         n,
		DBound:    d,
		Mode:      mode,
		Assign:    assign.DefaultParams(n, c),
		WithVdist: withVdist,
	}
}

// layerPhases returns the Decay-layering phases per epoch (LayerDecay).
func (c Config) layerPhases() int { return decay.EpochPhases(c.N, 3*c.Assign.C) }

// L returns ⌈log2 n⌉.
func (c Config) L() int { return sched.LogN(c.N) }

// LayerRounds returns the length of segment A.
func (c Config) LayerRounds() int64 {
	switch c.Mode {
	case LayerCD:
		return int64(c.DBound) + 1
	case LayerDecay:
		return decay.LayeringRounds(c.N, c.DBound, c.layerPhases())
	default:
		return 0
	}
}

// BoundariesRounds returns the length of segment B.
func (c Config) BoundariesRounds() int64 {
	return int64(c.BoundaryPhases()) * c.Assign.RankLen()
}

// BoundaryPhases returns the number of rank-length phases of segment
// B: it ends with the last boundary's window, so the schedule spans
// DBound·MaxRank phases sequentially and 3·DBound + 2·MaxRank - 4
// pipelined.
func (c Config) BoundaryPhases() int {
	if c.DBound <= 0 {
		return 0
	}
	_, end, _ := c.window(c.DBound-1, c.Assign.MaxRank())
	return end + 1
}

// window returns boundary b's window in segment B: its first and last
// phase and the stride between its ranks, which run from maxRank down
// to 1, rank i falling in phase start + stride·(maxRank-i). A
// sequential window opens when the one before it closes and takes one
// rank per phase. A pipelined window opens at phase 3b (the dependency
// skew documented on PipelinedBoundaries) and takes one rank every
// second phase, so it shares b's parity.
func (c Config) window(b, maxRank int) (start, end, stride int) {
	if !c.PipelinedBoundaries {
		start = b * maxRank
		return start, start + maxRank - 1, 1
	}
	start = 3 * b
	return start, start + 2*(maxRank-1), 2
}

// LevelTag returns the level-mod-4 boundary packet tag of a node at
// the given (construction-local) level. Sequential boundaries are
// never audible to each other, so their packets stay untagged (0).
func (c Config) LevelTag(level int32) int32 {
	if !c.PipelinedBoundaries {
		return 0
	}
	return (c.TagBase + level) & 3
}

// VdistIterations returns the number of d-iterations in segment C.
func (c Config) VdistIterations() int { return 2*c.L() + 1 }

// VdistStage1Rounds returns stage 1's length within one d-iteration.
func (c Config) VdistStage1Rounds() int64 {
	return int64(c.Assign.MaxRank()) * 2 * int64(c.DBound+1)
}

// VdistStage2Rounds returns stage 2's length within one d-iteration.
func (c Config) VdistStage2Rounds() int64 {
	l := int64(c.L())
	return int64(c.Assign.C) * l * l
}

// VdistRounds returns the length of segment C.
func (c Config) VdistRounds() int64 {
	if !c.WithVdist {
		return 0
	}
	return int64(c.VdistIterations()) * (c.VdistStage1Rounds() + c.VdistStage2Rounds())
}

// TotalRounds returns the full construction length.
func (c Config) TotalRounds() int64 {
	return c.LayerRounds() + c.BoundariesRounds() + c.VdistRounds()
}

// Segment identifies the top-level schedule segment.
type Segment uint8

// Segments.
const (
	SegLayer Segment = iota + 1
	SegBoundary
	SegVdist
	SegDone
)

// Pos locates a round within the construction schedule.
type Pos struct {
	Seg Segment
	// Boundary fields (SegBoundary): the rank-length phase index and
	// the in-phase offset (which boundary a node serves in a phase is
	// level-dependent). SegLayer sets Off to the round.
	Phase int
	Off   int64
	// Vdist fields (SegVdist).
	D     int   // frontier distance being extended
	Stage int   // 1 or 2
	Rank  int   // stage 1: rank class being pipelined
	Epoch int   // stage 1: epoch 1 or 2 (0-based: 0 or 1)
	VdOff int64 // stage 1: round within epoch (the level clock);
	// stage 2: Decay round offset.
}

// Locator is the precomputed form of a Config's schedule arithmetic.
// Locate runs for every node in every round (Act and Observe), and
// recomputing the segment-length chains — BoundariesRounds →
// assign.BoundaryRounds → RankLen → ... — dominated full-sweep CPU
// profiles (~60% of flat samples). Protocols compute a Locator once
// and locate against the cached lengths instead.
type Locator struct {
	layer      int64
	boundaries int64
	rankLen    int64 // one rank-length phase of segment B
	vdist      int64
	stage1     int64
	blockLen   int64 // stage1 + stage2
	waveSpan   int64 // DBound+1: stage-1 level clock span
}

// Locator precomputes the Config's schedule lengths.
func (c Config) Locator() Locator {
	return Locator{
		layer:      c.LayerRounds(),
		boundaries: c.BoundariesRounds(),
		rankLen:    c.Assign.RankLen(),
		vdist:      c.VdistRounds(),
		stage1:     c.VdistStage1Rounds(),
		blockLen:   c.VdistStage1Rounds() + c.VdistStage2Rounds(),
		waveSpan:   int64(c.DBound + 1),
	}
}

// Locate maps a global round to a schedule position.
func (l Locator) Locate(r int64) Pos {
	if r < 0 {
		panic(fmt.Sprintf("gstdist: negative round %d", r))
	}
	if r < l.layer {
		return Pos{Seg: SegLayer, Off: r}
	}
	r -= l.layer
	if r < l.boundaries {
		return Pos{Seg: SegBoundary, Phase: int(r / l.rankLen), Off: r % l.rankLen}
	}
	r -= l.boundaries
	if r < l.vdist {
		d := int(r / l.blockLen)
		rem := r % l.blockLen
		if rem < l.stage1 {
			perRank := 2 * l.waveSpan
			rank := int(rem / perRank)
			rem %= perRank
			epoch := int(rem / l.waveSpan)
			return Pos{Seg: SegVdist, D: d, Stage: 1, Rank: rank + 1,
				Epoch: epoch, VdOff: rem % l.waveSpan}
		}
		return Pos{Seg: SegVdist, D: d, Stage: 2, VdOff: rem - l.stage1}
	}
	return Pos{Seg: SegDone}
}
