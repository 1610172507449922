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
//	           level. Sequential (default): boundaries run deepest
//	           first, one after the other, O(D log^5 n). Pipelined
//	           (Config.PipelinedBoundaries, Section 2.2.4): time is
//	           split into rank-length phases alternating between even
//	           and odd boundary indices; all in-window same-parity
//	           boundaries process one rank per phase concurrently,
//	           O((D + log n) log^4 n). See the pipelining notes below.
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
	// CLayer scales the Decay-layering phases per epoch (LayerDecay).
	CLayer int
	// Assign is the per-boundary schedule.
	Assign assign.Params
	// WithVdist appends segment C (Lemma 3.10).
	WithVdist bool
	// CVdist scales the stage-2 Decay phases of segment C.
	CVdist int
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
	// TagBase offsets the level-mod-4 boundary tags. Standalone
	// constructions leave it 0; the rings of Theorems 1.1/1.3 set each
	// ring's base to (ring·W) mod 4 so tags are globally consistent
	// across ring borders even though each ring's construction runs on
	// local levels.
	TagBase int32
}

// DefaultConfig returns a construction schedule for size n, diameter
// bound d, with the global Θ-constant c.
func DefaultConfig(n, d, c int, mode LayerMode, withVdist bool) Config {
	if c < 1 {
		c = 1
	}
	return Config{
		N:         n,
		DBound:    d,
		Mode:      mode,
		CLayer:    3 * c,
		Assign:    assign.DefaultParams(n, c),
		WithVdist: withVdist,
		CVdist:    c,
	}
}

// L returns ⌈log2 n⌉.
func (c Config) L() int { return sched.LogN(c.N) }

// LayerRounds returns the length of segment A.
func (c Config) LayerRounds() int64 {
	switch c.Mode {
	case LayerCD:
		return int64(c.DBound) + 1
	case LayerDecay:
		return decay.LayeringRounds(c.N, c.DBound, decay.EpochPhases(c.N, c.CLayer))
	default:
		return 0
	}
}

// BoundariesRounds returns the length of segment B.
func (c Config) BoundariesRounds() int64 {
	if c.PipelinedBoundaries {
		return int64(c.PipelinedPhases()) * c.Assign.RankLen()
	}
	return int64(c.DBound) * c.Assign.BoundaryRounds()
}

// PipelinedPhases returns the number of rank-length phases of the
// pipelined segment B: it ends with the last boundary's window, so the
// schedule spans 3·DBound + 2·MaxRank - 4 phases.
func (c Config) PipelinedPhases() int {
	if c.DBound <= 0 {
		return 0
	}
	_, end := pipeWindow(c.DBound-1, c.Assign.MaxRank())
	return end + 1
}

// pipeWindow returns the first and last phase of boundary b's window in
// the pipelined segment B, whose ranks run from maxRank down to 1. The
// window opens at phase 3b (the dependency skew documented on
// PipelinedBoundaries) and processes one rank every second phase, so
// rank i falls in phase start + 2(maxRank-i) and the window shares
// b's parity.
func pipeWindow(b, maxRank int) (start, end int) {
	start = 3 * b
	return start, start + 2*(maxRank-1)
}

// LevelTag returns the level-mod-4 boundary packet tag of a node at
// the given (construction-local) level.
func (c Config) LevelTag(level int32) int32 {
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
	return int64(c.CVdist) * l * l
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
	// Boundary fields (SegBoundary, sequential): the boundary index
	// (0 = deepest, blue level = DBound - Boundary) and the
	// in-boundary offset. Pipelined segment-B positions set Boundary
	// to -1 (which boundary a node serves is level-dependent), Phase to
	// the rank-length phase index, and Off to the in-phase offset.
	Boundary int
	Phase    int
	Off      int64
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
	boundary   int64 // one boundary's length
	pipelined  bool  // segment B runs the even/odd pipelined schedule
	rankLen    int64 // one rank-length phase (pipelined)
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
		boundary:   c.Assign.BoundaryRounds(),
		pipelined:  c.PipelinedBoundaries,
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
		if l.pipelined {
			return Pos{Seg: SegBoundary, Boundary: -1,
				Phase: int(r / l.rankLen), Off: r % l.rankLen}
		}
		return Pos{Seg: SegBoundary, Boundary: int(r / l.boundary), Off: r % l.boundary}
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

// BlueLevel returns the blue level of boundary index b: boundaries are
// processed deepest-first.
func (c Config) BlueLevel(b int) int { return c.DBound - b }

// BoundaryIndexForBlueLevel returns the boundary index in which nodes
// of the given level act as blues.
func (c Config) BoundaryIndexForBlueLevel(l int) int { return c.DBound - l }
