package gstdist_test

// Property tests for segment B's boundary windows. Both schedules run
// through one implementation, so the tests read the protocol's own
// per-phase arithmetic (export_test.go) for each. Every boundary
// processes each rank once, from MaxRank down to 1. Sequential windows
// are disjoint and deepest-first, and tile segment B. The pipelined
// even/odd construction (Section 2.2.4) keeps a boundary-separation
// invariant across both theorem stacks that run it: the standalone
// distributed GST build (internal/gstdist) and the per-ring builds of
// Theorems 1.1/1.3 (internal/rings).
//
// The pipelined invariant has three parts (part 3 holds sequentially
// too):
//
//  1. parity separation: every phase drives only boundaries of one
//     parity, so simultaneously-active boundaries are >= 2 indices
//     apart and never share a node level;
//  2. tag disambiguation: when two simultaneously-active boundaries
//     come within conflict (hearing) distance — levels at most one
//     apart, which parity separation allows both within a
//     construction and across a ring border — their level-mod-4
//     packet tags must differ from every tag a cross-boundary
//     listener accepts;
//  3. dependency skew: boundary b's rank-i window opens strictly
//     after boundary b-1's rank-i AND rank-(i-1) windows close, so a
//     red ranked i (directly or by promotion from the rank-(i-1)
//     window) always knows its rank before its blue role needs it.
//
// The tests are table-driven with a testing/quick-style randomized
// generator on top: random (n, D, c) tuples and random graphs × seeds
// exercise the arithmetic far from the hand-picked cases.

import (
	"testing"

	"radiocast/internal/assign"
	"radiocast/internal/graph"
	"radiocast/internal/gstdist"
	"radiocast/internal/rings"
	"radiocast/internal/rng"
)

// pipeCfg builds a pipelined construction schedule.
func pipeCfg(n, d, c int) gstdist.Config {
	cfg := seqCfg(n, d, c)
	cfg.PipelinedBoundaries = true
	return cfg
}

// seqCfg builds a sequential construction schedule.
func seqCfg(n, d, c int) gstdist.Config {
	return gstdist.DefaultConfig(n, d, c, gstdist.LayerPreset, false)
}

// role is a node-level's activity in one phase.
type role struct {
	boundary int
	blue     bool
}

// activeRole is the protocol's per-phase role resolution: a node at the
// given construction level serves its red boundary or its blue boundary
// (never both — the test asserts that separately).
func activeRole(cfg gstdist.Config, level, phase int) (role, bool) {
	b, blue, ok := gstdist.BoundaryRole(cfg, level, phase)
	return role{boundary: b, blue: blue}, ok
}

// ownTag is the tag a node at level l stamps on its transmissions;
// wantTag is the only tag its boundary machine accepts.
func ownTag(cfg gstdist.Config, level int) int32 { return cfg.LevelTag(int32(level)) }

func wantTag(cfg gstdist.Config, level int, blue bool) int32 {
	if blue {
		return cfg.LevelTag(int32(level - 1))
	}
	return cfg.LevelTag(int32(level + 1))
}

// checkPhaseArithmetic asserts, for one configuration, the
// schedule-length identities, that every boundary processes each rank
// once from MaxRank down to 1, and part 3; for a pipelined one also
// part 1, and for a sequential one that the windows are disjoint,
// deepest-first and leave no phase idle.
func checkPhaseArithmetic(t *testing.T, cfg gstdist.Config) {
	t.Helper()
	maxRank := cfg.Assign.MaxRank()
	phases := cfg.BoundaryPhases()
	pipelined := cfg.PipelinedBoundaries
	want := cfg.DBound * maxRank
	if pipelined {
		want = 3*cfg.DBound + 2*maxRank - 4
	}
	if cfg.DBound >= 1 && phases != want {
		t.Fatalf("D=%d pipelined=%t: %d phases, want %d", cfg.DBound, pipelined, phases, want)
	}
	if got, want := cfg.BoundariesRounds(), int64(phases)*cfg.Assign.RankLen(); got != want {
		t.Fatalf("D=%d: segment B %d rounds, want phases×rankLen = %d", cfg.DBound, got, want)
	}
	seq := cfg
	seq.PipelinedBoundaries = false
	if got, want := seq.BoundariesRounds(), int64(cfg.DBound)*cfg.Assign.BoundaryRounds(); got != want {
		t.Fatalf("D=%d: sequential segment B %d rounds, want DBound×BoundaryRounds = %d", cfg.DBound, got, want)
	}
	if pipelined && cfg.DBound >= 3 && cfg.BoundariesRounds() > seq.BoundariesRounds() {
		t.Fatalf("D=%d: pipelined %d > sequential %d", cfg.DBound, cfg.BoundariesRounds(), seq.BoundariesRounds())
	}
	if pipelined && cfg.DBound >= 4 && cfg.BoundariesRounds() >= seq.BoundariesRounds() {
		t.Fatalf("D=%d: pipelined %d not strictly below sequential %d", cfg.DBound, cfg.BoundariesRounds(), seq.BoundariesRounds())
	}
	// phaseOf[b][i] is the phase in which boundary b processes rank i
	// (-1 until seen).
	phaseOf := make([][]int, cfg.DBound)
	for b := range phaseOf {
		phaseOf[b] = make([]int, maxRank+1)
		for i := range phaseOf[b] {
			phaseOf[b][i] = -1
		}
	}
	for p := 0; p < phases; p++ {
		var active []int
		for b := 0; b < cfg.DBound; b++ {
			if i := gstdist.BoundaryRank(cfg, b, p); i > 0 {
				if phaseOf[b][i] >= 0 {
					t.Fatalf("boundary %d processes rank %d twice", b, i)
				}
				phaseOf[b][i] = p
				active = append(active, b)
			}
		}
		if !pipelined {
			if len(active) != 1 {
				t.Fatalf("sequential phase %d drives boundaries %v, want exactly one", p, active)
			}
			continue
		}
		for _, b := range active {
			if b%2 != p%2 {
				t.Fatalf("phase %d drives boundary %d of the wrong parity", p, b)
			}
		}
		for i := 1; i < len(active); i++ {
			if active[i]-active[i-1] < 2 {
				t.Fatalf("phase %d drives adjacent boundaries %d and %d (shared level %d)",
					p, active[i-1], active[i], cfg.DBound-active[i])
			}
		}
	}
	// Sequential windows run deepest-first: boundary b's last rank
	// precedes boundary b+1's first.
	for b := 1; b < cfg.DBound && !pipelined; b++ {
		if phaseOf[b][maxRank] <= phaseOf[b-1][1] {
			t.Fatalf("sequential boundary %d opens at phase %d, before boundary %d closes at %d",
				b, phaseOf[b][maxRank], b-1, phaseOf[b-1][1])
		}
	}
	// Every boundary processes every rank, from MaxRank down to 1.
	for b := 0; b < cfg.DBound; b++ {
		for i := 1; i <= maxRank; i++ {
			if phaseOf[b][i] < 0 {
				t.Fatalf("boundary %d never processes rank %d", b, i)
			}
			if i < maxRank && phaseOf[b][i] <= phaseOf[b][i+1] {
				t.Fatalf("boundary %d processes rank %d before rank %d", b, i, i+1)
			}
		}
	}
	// Dependency skew (part 3): every rank window at boundary b opens
	// after the windows at b-1 that can produce that rank — rank i
	// directly, and rank i via promotion at the rank-(i-1) window.
	for b := 1; b < cfg.DBound; b++ {
		for i := 1; i <= maxRank; i++ {
			if phaseOf[b][i] <= phaseOf[b-1][i] {
				t.Fatalf("boundary %d rank %d opens at phase %d, not after boundary %d's phase %d",
					b, i, phaseOf[b][i], b-1, phaseOf[b-1][i])
			}
			if i >= 2 && phaseOf[b][i] <= phaseOf[b-1][i-1] {
				t.Fatalf("boundary %d rank %d opens before boundary %d's promoting rank-%d window",
					b, i, b-1, i-1)
			}
		}
	}
}

func TestPipelinedPhaseArithmetic(t *testing.T) { phaseArithmetic(t, pipeCfg) }

func TestSequentialPhaseArithmetic(t *testing.T) { phaseArithmetic(t, seqCfg) }

func phaseArithmetic(t *testing.T, cfgOf func(n, d, c int) gstdist.Config) {
	for _, c := range []struct{ n, d, c int }{
		{16, 1, 1}, {16, 2, 1}, {24, 3, 2}, {32, 10, 1}, {64, 9, 2}, {1 << 10, 23, 1},
	} {
		checkPhaseArithmetic(t, cfgOf(c.n, c.d, c.c))
	}
	// Randomized sweep (testing/quick-style): the arithmetic must hold
	// for arbitrary (n, D, c).
	r := rng.New(0x1517)
	for trial := 0; trial < 200; trial++ {
		n := 8 + r.Intn(1<<12)
		d := 1 + r.Intn(40)
		checkPhaseArithmetic(t, cfgOf(n, d, 1+r.Intn(3)))
	}
}

// checkGraphConflicts asserts part 2 on a concrete graph: whenever two
// neighbors are simultaneously driven by different boundaries, neither
// can accept the other's packets. levels[v] is v's construction-local
// level; reject is called for violations.
func checkGraphConflicts(t *testing.T, g *graph.Graph, cfg gstdist.Config, levels []int32) {
	t.Helper()
	phases := cfg.BoundaryPhases()
	for p := 0; p < phases; p++ {
		for v := 0; v < g.N(); v++ {
			lv := int(levels[v])
			bBlue := cfg.DBound - lv
			if gstdist.BoundaryRank(cfg, bBlue, p) > 0 && gstdist.BoundaryRank(cfg, bBlue-1, p) > 0 {
				t.Fatalf("phase %d: node %d (level %d) active in both roles", p, v, lv)
			}
			rv, okv := activeRole(cfg, lv, p)
			if !okv {
				continue
			}
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				lu := int(levels[u])
				ru, oku := activeRole(cfg, lu, p)
				if !oku || ru.boundary == rv.boundary {
					continue
				}
				// v listens with wantTag; u transmits with ownTag. A
				// cross-boundary packet must never carry an accepted tag.
				if wantTag(cfg, lv, rv.blue) == ownTag(cfg, lu) {
					t.Fatalf("phase %d: node %d (level %d, boundary %d) would accept packets from "+
						"node %d (level %d, boundary %d): tag %d",
						p, v, lv, rv.boundary, u, lu, ru.boundary, ownTag(cfg, lu))
				}
			}
		}
	}
}

func TestPipelinedBoundarySeparationOnGraphs(t *testing.T) {
	cases := []*graph.Graph{
		graph.Path(24),
		graph.Grid(4, 8),
		graph.ClusterChain(5, 4),
		graph.BinaryTree(31),
	}
	// Randomized graphs × seeds on top of the table.
	r := rng.New(0x1518)
	for trial := 0; trial < 12; trial++ {
		n := 12 + r.Intn(48)
		cases = append(cases, graph.GNP(n, 0.05+r.Float64()*0.2, uint64(r.Intn(1<<16))))
	}
	for _, g := range cases {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			d := graph.Eccentricity(g, 0)
			if d < 1 {
				t.Skip("diameter 0")
			}
			levels := graph.BFS(g, 0).Dist
			checkGraphConflicts(t, g, pipeCfg(g.N(), d, 1), levels)
			checkGraphConflicts(t, g, seqCfg(g.N(), d, 1), levels)
		})
	}
}

// ringNode is a (ring, local level) pair with its global level.
type ringNode struct {
	ring   int
	local  int
	global int
}

// TestRingsPipelinedParitySeparation asserts the invariant across ring
// borders: the lockstep W>=3 distance argument relaxes to parity
// separation under pipelining, so active boundaries of adjacent rings
// can come within one layer of each other — and must then be
// distinguished by the (ring·W mod 4)-anchored level tags, exactly as
// rings.Protocol configures them.
func TestRingsPipelinedParitySeparation(t *testing.T) {
	type cse struct{ n, d, w int }
	cases := []cse{{64, 15, 4}, {64, 19, 5}, {128, 23, 6}, {96, 27, 7}}
	r := rng.New(0x1519)
	for trial := 0; trial < 24; trial++ {
		w := 4 + r.Intn(6)
		cases = append(cases, cse{16 + r.Intn(240), w + r.Intn(40), w})
	}
	for _, c := range cases {
		rcfg := rings.DefaultConfig(c.n, c.d, 0, 1)
		rcfg.W = c.w
		rcfg.GST.DBound = c.w - 1
		rcfg.SetPipelined(true)
		if !rcfg.Pipelined() {
			t.Fatalf("n=%d d=%d w=%d: pipelining did not engage", c.n, c.d, c.w)
		}
		// Per-ring construction configs exactly as rings.Protocol builds
		// them: local levels, tag base anchored at the ring's global
		// offset mod 4.
		gcfg := make([]gstdist.Config, rcfg.Rings())
		for ring := range gcfg {
			gcfg[ring] = rcfg.GST
			gcfg[ring].TagBase = int32(ring * c.w % 4)
		}
		// Every populated (ring, local level) slot.
		var nodes []ringNode
		for g := 0; g <= c.d; g++ {
			nodes = append(nodes, ringNode{ring: rcfg.RingOf(int32(g)), local: int(rcfg.LocalLevel(int32(g))), global: g})
		}
		phases := rcfg.GST.BoundaryPhases()
		for p := 0; p < phases; p++ {
			for _, a := range nodes {
				ra, oka := activeRole(gcfg[a.ring], a.local, p)
				if !oka {
					continue
				}
				for _, b := range nodes {
					// Hearing distance: same or adjacent global layer.
					if b.global < a.global-1 || b.global > a.global+1 {
						continue
					}
					rb, okb := activeRole(gcfg[b.ring], b.local, p)
					if !okb || (a.ring == b.ring && ra.boundary == rb.boundary) {
						continue
					}
					if wantTag(gcfg[a.ring], a.local, ra.blue) == ownTag(gcfg[b.ring], b.local) {
						t.Fatalf("n=%d d=%d w=%d phase %d: layer %d (ring %d, boundary %d) accepts "+
							"packets from layer %d (ring %d, boundary %d)",
							c.n, c.d, c.w, p, a.global, a.ring, ra.boundary, b.global, b.ring, rb.boundary)
					}
				}
			}
		}
	}
}

// TestSequentialTagsStayZero pins the compatibility contract: the
// sequential construction never tags its packets, whatever tag base a
// ring sets, so every packet the untagged protocol exchanged (and the
// shared untagged ping box) is unchanged.
func TestSequentialTagsStayZero(t *testing.T) {
	cfg := gstdist.DefaultConfig(64, 8, 1, gstdist.LayerPreset, false)
	if cfg.TagBase != 0 {
		t.Fatal("default config must keep a zero tag base")
	}
	for base := int32(0); base < 4; base++ {
		cfg.TagBase = base
		for l := int32(0); l <= 8; l++ {
			if tag := cfg.LevelTag(l); tag != 0 {
				t.Fatalf("sequential level %d tag %d at base %d, want 0", l, tag, base)
			}
		}
	}
	if (assign.IdentPacket{}).Tag != 0 || (assign.PingPacket{}).Tag != 0 {
		t.Fatal("zero-value packets must carry zero tags")
	}
}
