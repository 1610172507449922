// Package rings implements the ring-decomposition protocol stacks of
// Theorem 1.1 (single-message broadcast, unknown topology, collision
// detection, O(D + polylog n)) and Theorem 1.3 (k-message broadcast,
// same setting, O(D + k log n + polylog n)).
//
// Pipeline (proofs of Theorems 1.1 and 1.3):
//
//	segment A  global collision-wave BFS layering in DBound+1 rounds.
//	segment B  decompose layers into rings of width W and build one
//	           GST per ring — all rings in parallel. With sequential
//	           boundaries, rings process them in lockstep,
//	           deepest-first, so concurrently active boundaries stay
//	           exactly W ≥ 3 layers apart and never interfere. With
//	           pipelined boundaries (SetPipelined, Section 2.2.4) the
//	           lockstep separation invariant relaxes to parity
//	           separation: same-parity boundaries run concurrently both
//	           within and across rings, active boundaries can come
//	           within one layer of each other across a ring border, and
//	           level-mod-4 packet tags (anchored per ring at
//	           (ring·W) mod 4) replace distance as the
//	           non-interference mechanism — shrinking the build segment
//	           from (W-1)·MaxRank to 3(W-1) + 2·MaxRank - 4
//	           rank-lengths. Segment-C vdist floods are scoped by a
//	           ring-parity tag.
//	segment C  single message (Theorem 1.1): ring-by-ring broadcast
//	           with the GST schedule, then a Decay handoff of
//	           Θ(log^2 n) rounds across each ring border.
//	           k messages (Theorem 1.3): batches of Θ(log n) messages
//	           pipelined across rings with stride 2 (adjacent rings
//	           are never simultaneously active, which substitutes for
//	           the paper's strip-level interleaving at twice the epoch
//	           count), RLNC inside rings, fountain FEC across borders.
//
// Fidelity note (DESIGN.md/EXPERIMENTS.md): with the sequential
// boundary construction, the polylog additive term is log^7-shaped
// rather than the paper's log^6, and the asymptotic regime D ≫ log^4 n
// where the ring machinery pays off is unreachable at simulation
// scale; the experiments therefore report the setup/broadcast phase
// decomposition explicitly.
package rings

import (
	"radiocast/internal/gstdist"
	"radiocast/internal/sched"
)

// Config fixes the schedule of a rings run.
type Config struct {
	// N is the network-size parameter.
	N int
	// DBound bounds the source eccentricity (wave horizon, ring count).
	DBound int
	// W is the ring width in layers; at least 3 (adjacent-ring
	// non-interference) — the paper's W is D/log^4 n.
	W int
	// Batch is the messages per RLNC generation for Theorem 1.3
	// (default Θ(log n)); 0 disables multi-message fields.
	Batch int
	// K is the total message count (Theorem 1.3).
	K int
	// GST is the per-ring construction schedule (preset levels,
	// DBound = W-1, vdist enabled). Its Θ-constant GST.Assign.C also
	// scales the broadcast and handoff windows.
	GST gstdist.Config
}

// PayloadBits is the message payload size of the k-message stacks
// (RLNC/FEC).
const PayloadBits = 32

// L returns ⌈log2 n⌉.
func (c Config) L() int { return sched.LogN(c.N) }

// DefaultWidth returns the ring width used by the harness: the
// paper's D/log^4 n clamped to [3, D+1].
func DefaultWidth(n, d int) int {
	l := sched.LogN(n)
	w := d / (l * l * l * l)
	if w < 3 {
		w = 3
	}
	if w > d+1 {
		w = d + 1
	}
	return w
}

// DefaultConfig builds a Theorem 1.1 configuration (k = 0) or a
// Theorem 1.3 configuration (k > 0) with Θ-constant c.
func DefaultConfig(n, d, k, c int) Config {
	w := DefaultWidth(n, d)
	l := sched.LogN(n)
	cfg := Config{
		N:      n,
		DBound: d,
		W:      w,
		K:      k,
	}
	if k > 0 {
		cfg.Batch = l
		if cfg.Batch > k {
			cfg.Batch = k
		}
	}
	cfg.GST = gstdist.DefaultConfig(n, w-1, c, gstdist.LayerPreset, true)
	return cfg
}

// SetPipelined toggles the Section 2.2.4 pipelined boundary
// construction inside every ring's GST build. Enabling applies only
// when the pipelined schedule actually shortens the build: per-ring
// diameter bound is W-1, and at the minimum width W=3 the sequential
// lockstep is already as short as the pipeline's skew-3 wavefront
// (the pipeline wins from DBound >= 3, strictly from DBound >= 4 or
// deeper rank stacks) — narrow rings therefore keep the sequential
// schedule rather than paying the wavefront fill.
func (c *Config) SetPipelined(on bool) {
	c.GST.PipelinedBoundaries = false
	if !on {
		return
	}
	pip := c.GST
	pip.PipelinedBoundaries = true
	if pip.BoundariesRounds() < c.GST.BoundariesRounds() {
		c.GST.PipelinedBoundaries = true
	}
}

// Pipelined reports whether the ring GST builds use the pipelined
// boundary schedule.
func (c Config) Pipelined() bool { return c.GST.PipelinedBoundaries }

// Rings returns the number of rings covering layers [0, DBound].
func (c Config) Rings() int { return (c.DBound + c.W) / c.W }

// RingOf returns the ring index of a BFS layer.
func (c Config) RingOf(layer int32) int { return int(layer) / c.W }

// LocalLevel returns the in-ring level of a layer.
func (c Config) LocalLevel(layer int32) int32 { return layer % int32(c.W) }

// Batches returns the number of RLNC generations (Theorem 1.3).
func (c Config) Batches() int {
	if c.Batch <= 0 {
		return 0
	}
	return (c.K + c.Batch - 1) / c.Batch
}

// WaveRounds returns segment A's length.
func (c Config) WaveRounds() int64 { return int64(c.DBound) + 1 }

// BuildRounds returns segment B's length (identical for every ring —
// they run in lockstep).
func (c Config) BuildRounds() int64 { return c.GST.TotalRounds() }

// BroadcastWindow returns the per-ring GST broadcast window length,
// C·(2W + 10·Batch·L + 8·L² + 20·L) rounds for the Θ-constant C:
// Θ(W + Batch·log n + log^2 n) with empirically calibrated constants
// (a fast wave advances one hop per two rounds; each extra message
// costs ~4-6 slow-slot deliveries of ⌈log n⌉ rounds each).
func (c Config) BroadcastWindow() int64 {
	l := int64(c.L())
	return int64(c.GST.Assign.C) * (2*int64(c.W) + 10*int64(c.Batch)*l + 8*l*l + 20*l)
}

// HandoffWindow returns the border handoff window length: enough Decay
// phases for Batch innovative fountain receptions plus slack, C·L +
// 3·Batch + 8 phases of L rounds.
func (c Config) HandoffWindow() int64 {
	l := int64(c.L())
	phases := int64(c.GST.Assign.C)*l + 3*int64(c.Batch) + 8
	return phases * l
}

// EpochLen returns one broadcast+handoff epoch.
func (c Config) EpochLen() int64 { return c.BroadcastWindow() + c.HandoffWindow() }

// Epochs returns the number of segment-C epochs: one per ring for the
// single message; R + 2·Batches for the stride-2 pipeline.
func (c Config) Epochs() int {
	if c.Batch <= 0 {
		return c.Rings()
	}
	return c.Rings() + 2*c.Batches()
}

// SpreadRounds returns segment C's length.
func (c Config) SpreadRounds() int64 { return int64(c.Epochs()) * c.EpochLen() }

// TotalRounds returns the full protocol length.
func (c Config) TotalRounds() int64 {
	return c.WaveRounds() + c.BuildRounds() + c.SpreadRounds()
}

// Segment identifies the top-level position.
type Segment uint8

// Segments.
const (
	SegWave Segment = iota + 1
	SegBuild
	SegSpread
	SegDone
)

// Pos locates a round.
type Pos struct {
	Seg   Segment
	Off   int64 // segment-local offset
	Epoch int   // segment C epoch
	// Handoff marks the handoff sub-window of the epoch; EpochOff is
	// the offset within the sub-window.
	Handoff  bool
	EpochOff int64
}

// Locator is the precomputed form of a Config's schedule arithmetic.
// Locate runs for every node in every round (Act and Observe), and
// its length chain — BuildRounds → gstdist.TotalRounds →
// assign.BoundaryRounds → ... — dominated full-sweep CPU profiles;
// protocols cache a Locator once instead.
type Locator struct {
	wave     int64
	build    int64
	spread   int64
	epochLen int64
	bcastWin int64
}

// Locator precomputes the Config's schedule lengths.
func (c Config) Locator() Locator {
	return Locator{
		wave:     c.WaveRounds(),
		build:    c.BuildRounds(),
		spread:   c.SpreadRounds(),
		epochLen: c.EpochLen(),
		bcastWin: c.BroadcastWindow(),
	}
}

// Locate maps a global round to a position.
func (l Locator) Locate(r int64) Pos {
	if r < l.wave {
		return Pos{Seg: SegWave, Off: r}
	}
	r -= l.wave
	if r < l.build {
		return Pos{Seg: SegBuild, Off: r}
	}
	r -= l.build
	if r < l.spread {
		epoch := int(r / l.epochLen)
		rem := r % l.epochLen
		if rem < l.bcastWin {
			return Pos{Seg: SegSpread, Epoch: epoch, EpochOff: rem}
		}
		return Pos{Seg: SegSpread, Epoch: epoch, Handoff: true, EpochOff: rem - l.bcastWin}
	}
	return Pos{Seg: SegDone}
}
