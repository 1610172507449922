package gstdist

import (
	"math/rand"

	"radiocast/internal/assign"
	"radiocast/internal/beep"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/radio"
)

// Packets of segment C.

// WavePacket is the stage-1 fast-stretch wave transmission; receivers
// accept it only from their parent and only with a matching tag.
type WavePacket struct {
	D   int32
	Tag int32
}

// Bits implements radio.Packet.
func (WavePacket) Bits() int { return 33 }

// FloodPacket is the stage-2 frontier Decay transmission; receivers
// require a matching tag.
type FloodPacket struct {
	D   int32
	Tag int32
}

// Bits implements radio.Packet.
func (FloodPacket) Bits() int { return 33 }

// Result is the per-node outcome of the construction.
type Result struct {
	Level      int32
	Rank       int32
	Parent     radio.NodeID // -1 for roots
	ParentRank int32
	Vdist      int32 // -1 if not computed / not learned
	// SameRankChild marks non-terminal fast-stretch nodes.
	SameRankChild bool
}

// Put writes r as node v's row of f — the only row v writes; root
// marks a forest root. The stretch role follows from what v learned:
// a root or a node whose parent has a different rank starts a stretch.
func (r Result) Put(f *gst.Flat, v graph.NodeID, root bool) {
	f.Parent[v] = r.Parent
	f.Level[v] = r.Level
	f.Rank[v] = r.Rank
	f.Vdist[v] = r.Vdist
	f.ParentRank[v] = r.ParentRank
	f.SameRankChild[v] = r.SameRankChild
	f.StretchStart[v] = root || r.ParentRank != r.Rank
	f.Root[v] = root
}

// Protocol is the per-node distributed GST construction state machine.
type Protocol struct {
	cfg     Config
	loc     Locator // cached schedule arithmetic (hot: every Act/Observe)
	maxRank int     // cached Assign.MaxRank (hot in segment B)
	id      radio.NodeID
	isRoot  bool
	rng     *rand.Rand

	// DoneSet, when non-nil, is ticked exactly once per node at the
	// moment its blue role first holds an assigned parent — the node is
	// "informed" of its place in the tree. Roots start informed and are
	// ticked by the harness's initial scan (the initDone contract).
	DoneSet *radio.DoneSet

	// Segment A.
	wave     *beep.Wave
	layering *decay.Layering
	level    int32

	// Segment B. The node serves two boundaries: as a red at
	// DBound-level-1 and as a blue at DBound-level, one machine each.
	// Pipelined windows interleave, so both machines can be live.
	bRed      *assign.Node
	bBlue     *assign.Node
	rank      int32
	ranked    bool // red role produced a rank
	sameRank  bool
	parent    radio.NodeID
	parentRnk int32
	assigned  bool
	informed  bool // DoneSet ticked (or root)
	// The node's role in phase bPhase (-1 none yet), computed once per
	// phase: the rank it processes there (0 if it serves no boundary)
	// and whether as a blue.
	bPhase  int
	bRank   int
	bIsBlue bool

	// Segment C.
	vdist     int32
	waveRelay bool // received the stage-1 wave in the current block
	curBlock  int64
	// Per-block boxed packets (contents are fixed within a block, so
	// they box once per block instead of once per transmission).
	wavePkt  radio.Packet
	floodPkt radio.Packet
}

var _ radio.Protocol = (*Protocol)(nil)

// New creates the construction protocol for one node. With
// LayerPreset, presetLevel supplies the node's BFS level (from a
// prior collision wave); otherwise it is ignored.
func New(cfg Config, id radio.NodeID, isRoot bool, presetLevel int32, rng *rand.Rand) *Protocol {
	p := &Protocol{
		cfg:       cfg,
		loc:       cfg.Locator(),
		maxRank:   cfg.Assign.MaxRank(),
		id:        id,
		isRoot:    isRoot,
		rng:       rng,
		level:     -1,
		bPhase:    -1,
		rank:      0,
		parent:    -1,
		parentRnk: 0,
		informed:  isRoot,
		vdist:     -1,
		curBlock:  -1,
	}
	switch cfg.Mode {
	case LayerCD:
		p.wave = beep.NewWave(isRoot, cfg.LayerRounds())
	case LayerDecay:
		p.layering = decay.NewLayering(cfg.N, isRoot, cfg.layerPhases(), rng)
	case LayerPreset:
		p.level = presetLevel
	}
	if isRoot {
		p.level = 0
		p.vdist = 0
	}
	return p
}

// Reset rewinds the protocol for a new run with the same Config,
// reusing the layering sub-protocol (boundary machines are per-window
// and rebuilt during the run either way). The RNG binding is
// unchanged; reseeding it is the caller's job.
func (p *Protocol) Reset(isRoot bool, presetLevel int32) {
	p.isRoot = isRoot
	p.level = -1
	p.bRed = nil
	p.bBlue = nil
	p.bPhase = -1
	p.rank = 0
	p.ranked = false
	p.sameRank = false
	p.parent = -1
	p.parentRnk = 0
	p.assigned = false
	p.informed = isRoot
	p.vdist = -1
	p.waveRelay = false
	p.curBlock = -1
	p.wavePkt = nil
	p.floodPkt = nil
	switch p.cfg.Mode {
	case LayerCD:
		p.wave.Reset(isRoot, p.cfg.LayerRounds())
	case LayerDecay:
		p.layering.Reset(isRoot)
	case LayerPreset:
		p.level = presetLevel
	}
	if isRoot {
		p.level = 0
		p.vdist = 0
	}
}

// Result returns the node's learned GST data. Valid once the schedule
// passed TotalRounds; Rank resolves to 1 for nodes that were never
// ranked as reds (leaves). A boundary machine whose window coincides
// with the end of the schedule is harvested here (the engine stops
// before any post-schedule Act could do it).
func (p *Protocol) Result() Result {
	p.harvestAll()
	rank := p.rank
	if !p.ranked {
		rank = 1
	}
	return Result{
		Level:         p.level,
		Rank:          rank,
		Parent:        p.parent,
		ParentRank:    p.parentRnk,
		Vdist:         p.vdist,
		SameRankChild: p.sameRank,
	}
}

// Harvest collects a finished construction over g, protos[v] running
// at node v, into the GST rooted at root and the per-node virtual
// distances (all zero unless the config computed them).
func Harvest(g *graph.Graph, root graph.NodeID, protos []*Protocol) (*gst.Tree, []int32) {
	tree := gst.NewTree(g, []graph.NodeID{root})
	vdist := make([]int32, len(protos))
	for v, p := range protos {
		res := p.Result()
		tree.Level[v] = res.Level
		tree.Parent[v] = res.Parent
		tree.Rank[v] = res.Rank
		vdist[v] = res.Vdist
	}
	return tree, vdist
}

// Informed reports whether the node knows its parent (roots start
// informed). Harness runners use it for the initial DoneSet scan.
func (p *Protocol) Informed() bool { return p.informed }

// Rng exposes the protocol's RNG so reuse harnesses can reseed it.
func (p *Protocol) Rng() *rand.Rand { return p.rng }

// tickAssigned records the node's first assignment on the DoneSet.
func (p *Protocol) tickAssigned() {
	if !p.informed {
		p.informed = true
		p.DoneSet.Tick()
	}
}

// ownRank returns the node's rank for its blue role: the rank learned
// as a red at the deeper boundary, or 1 (leaf). Under pipelining the
// red machine is still live while the blue role runs, so the rank is
// consulted in place; the window skew guarantees that at a blue
// rank-i window every rank >= i is already final.
func (p *Protocol) ownRank() int32 {
	if p.ranked {
		return p.rank
	}
	if p.bRed != nil && p.bRed.RedRanked() {
		return p.bRed.RedRank()
	}
	return 1
}

// isStretchStart reports whether the node begins a fast stretch.
func (p *Protocol) isStretchStart() bool {
	return p.isRoot || (p.assigned && p.parentRnk != p.ownRank())
}

// finishLayering harvests segment-A results.
func (p *Protocol) finishLayering() {
	if p.level >= 0 {
		return
	}
	switch {
	case p.wave != nil:
		p.level = int32(p.wave.Level())
	case p.layering != nil:
		p.level = int32(p.layering.Level())
	}
}

// harvestBlue folds a completed blue-role machine into the node state.
func (p *Protocol) harvestBlue(nd *assign.Node) {
	if nd.Assigned() {
		p.assigned = true
		p.parent = nd.Parent()
		p.parentRnk = nd.ParentRank()
		p.tickAssigned()
	}
}

// harvestRed folds a completed red-role machine into the node state.
func (p *Protocol) harvestRed(nd *assign.Node) {
	if nd.RedRanked() {
		p.ranked = true
		p.rank = nd.RedRank()
		p.sameRank = nd.RedHasSameRankChild()
	}
}

// Segment B.
//
// Phase q drives every boundary whose window holds q at the window's
// stride; boundary b processes rank MaxRank - (q-start)/stride there
// at the in-rank offsets of a boundary run on its own, so the
// assign.Node machines run unchanged: they are fed their
// boundary-local offsets in (for pipelining, interleaved) slices of
// global time. A node's red boundary (DBound-level-1) and blue boundary
// (DBound-level) never share a phase: sequential windows are disjoint,
// and pipelined windows of adjacent boundaries have opposite parities.

// boundaryRank returns the rank boundary b processes in the given
// phase, or 0 when b is not a boundary or the phase is outside b's
// window or between its ranks.
func (p *Protocol) boundaryRank(b, phase int) int {
	if b < 0 || b >= p.cfg.DBound {
		return 0
	}
	start, end, stride := p.cfg.window(b, p.maxRank)
	if phase < start || phase > end || (phase-start)%stride != 0 {
		return 0
	}
	return p.maxRank - (phase-start)/stride
}

// role returns the rank the node processes in the given phase (0 if it
// serves no boundary there) and whether it plays the blue role, at
// boundary DBound-level, rather than the red one at DBound-level-1.
func (p *Protocol) role(phase int) (rank int, isBlue bool) {
	bBlue := p.cfg.DBound - int(p.level)
	if rank := p.boundaryRank(bBlue-1, phase); rank > 0 {
		return rank, false
	}
	return p.boundaryRank(bBlue, phase), true
}

// harvestPast harvests machines whose windows have passed. The red
// machine must be harvested (or consulted live — see ownRank) before
// the blue role needs the node's rank; harvesting at the first phase
// after the window closes preserves that order.
func (p *Protocol) harvestPast(phase int) {
	bBlue := p.cfg.DBound - int(p.level)
	if p.bRed != nil {
		if _, end, _ := p.cfg.window(bBlue-1, p.maxRank); phase > end {
			p.harvestRed(p.bRed)
			p.bRed = nil
		}
	}
	if p.bBlue != nil {
		if _, end, _ := p.cfg.window(bBlue, p.maxRank); phase > end {
			p.harvestBlue(p.bBlue)
			p.bBlue = nil
		}
	}
}

// harvestAll harvests any still-live machines (segment B over, or
// Result called at the schedule end).
func (p *Protocol) harvestAll() {
	if p.bRed != nil {
		p.harvestRed(p.bRed)
		p.bRed = nil
	}
	if p.bBlue != nil {
		p.harvestBlue(p.bBlue)
		p.bBlue = nil
	}
}

// boundaryAct drives segment B at the located phase and offset. A node
// that never learned its level serves no boundary and sleeps to
// segment C.
func (p *Protocol) boundaryAct(pos Pos) radio.Action {
	if pos.Phase != p.bPhase {
		p.finishLayering()
		p.harvestPast(pos.Phase)
		p.bPhase = pos.Phase
		p.bRank, p.bIsBlue = p.role(pos.Phase)
	}
	if p.bRank == 0 {
		return radio.Sleep(p.nextWake(pos.Phase))
	}
	off := int64(p.maxRank-p.bRank)*p.loc.rankLen + pos.Off
	if p.bIsBlue {
		if p.bBlue == nil {
			if off != 0 {
				return radio.Listen // window already running; cannot join
			}
			p.bBlue = assign.NewTaggedNode(p.cfg.Assign, p.id, assign.Blue, p.ownRank(), p.rng,
				p.cfg.LevelTag(p.level), p.cfg.LevelTag(p.level-1))
		} else if pos.Off == 0 {
			// Rank-window start: adopt the rank the red role has learned
			// by now (final for every rank >= this window's rank).
			p.bBlue.SetBlueRank(p.ownRank())
		}
		act := p.bBlue.Act(off)
		if p.bBlue.Assigned() {
			p.tickAssigned()
		}
		return act
	}
	if p.bRed == nil {
		if off != 0 {
			return radio.Listen
		}
		p.bRed = assign.NewTaggedNode(p.cfg.Assign, p.id, assign.Red, 0, p.rng,
			p.cfg.LevelTag(p.level), p.cfg.LevelTag(p.level+1))
	}
	return p.bRed.Act(off)
}

// boundaryObserve routes a segment-B reception to the machine of the
// role boundaryAct memoized for this round's phase.
func (p *Protocol) boundaryObserve(pos Pos, out radio.Outcome) {
	if p.bRank == 0 {
		return
	}
	off := int64(p.maxRank-p.bRank)*p.loc.rankLen + pos.Off
	if p.bIsBlue {
		if p.bBlue != nil {
			p.bBlue.Observe(off, out)
			if p.bBlue.Assigned() {
				p.tickAssigned()
			}
		}
	} else if p.bRed != nil {
		p.bRed.Observe(off, out)
	}
}

// nextWake returns the round of the node's next segment-B
// participation: the next in-window phase of either of its boundaries,
// or the start of segment C.
func (p *Protocol) nextWake(phase int) int64 {
	bBlue := p.cfg.DBound - int(p.level)
	next := p.loc.layer + p.loc.boundaries // segment C
	for _, b := range [2]int{bBlue - 1, bBlue} {
		if b < 0 || b >= p.cfg.DBound {
			continue
		}
		start, end, stride := p.cfg.window(b, p.maxRank)
		q := max(phase+1, start)
		q += (stride - (q-start)%stride) % stride
		if q > end {
			continue
		}
		next = min(next, p.loc.layer+int64(q)*p.loc.rankLen)
	}
	return next
}

// Act implements radio.Protocol.
func (p *Protocol) Act(r int64) radio.Action {
	pos := p.loc.Locate(r)
	switch pos.Seg {
	case SegLayer:
		var act radio.Action
		switch {
		case p.wave != nil:
			act = p.wave.Act(r)
		case p.layering != nil:
			act = p.layering.Act(r)
		}
		// Sub-protocols may sleep past their own end; clamp to the
		// start of segment B so boundary windows are not missed.
		if act.SleepUntil > p.loc.layer {
			act.SleepUntil = p.loc.layer
		}
		return act
	case SegBoundary:
		return p.boundaryAct(pos)
	case SegVdist:
		p.harvestAll()
		return p.vdistAct(pos)
	default:
		p.harvestAll()
		return radio.Sleep(1 << 62)
	}
}

// Observe implements radio.Protocol.
func (p *Protocol) Observe(r int64, out radio.Outcome) {
	pos := p.loc.Locate(r)
	switch pos.Seg {
	case SegLayer:
		switch {
		case p.wave != nil:
			p.wave.Observe(r, out)
		case p.layering != nil:
			p.layering.Observe(r, out)
		}
	case SegBoundary:
		p.boundaryObserve(pos, out)
	case SegVdist:
		p.vdistObserve(pos, out)
	}
}

// vdistAct handles segment C transmissions.
func (p *Protocol) vdistAct(pos Pos) radio.Action {
	p.syncVdistBlock(pos)
	if pos.Stage == 1 {
		// Epoch 0: stretch starts of the d-frontier launch the wave.
		// Epoch 1: stretch nodes that saw the wave this block relay it.
		// Both transmit only in the round matching their level and only
		// when they have a same-rank child to deliver to.
		if int64(p.level) != pos.VdOff || int32(pos.Rank) != p.ownRank() || !p.sameRank {
			return radio.Listen
		}
		launch := pos.Epoch == 0 && p.vdist == int32(pos.D) && p.isStretchStart()
		relay := pos.Epoch == 1 && p.waveRelay
		if launch || relay {
			return radio.Transmit(p.wavePkt)
		}
		return radio.Listen
	}
	// Stage 2: the d-frontier floods with Decay.
	if p.vdist == int32(pos.D) {
		slot := int(pos.VdOff) % p.cfg.L()
		if p.rng.Float64() < decay.TransmitProb(slot) {
			return radio.Transmit(p.floodPkt)
		}
	}
	return radio.Listen
}

// syncVdistBlock resets per-block wave state and re-boxes the block's
// packets (their contents are constant within a block).
func (p *Protocol) syncVdistBlock(pos Pos) {
	block := int64(pos.D)
	if block != p.curBlock {
		p.curBlock = block
		p.waveRelay = false
		p.wavePkt = WavePacket{D: int32(pos.D), Tag: p.cfg.Tag}
		p.floodPkt = FloodPacket{D: int32(pos.D), Tag: p.cfg.Tag}
	}
}

// vdistObserve handles segment C receptions.
func (p *Protocol) vdistObserve(pos Pos, out radio.Outcome) {
	p.syncVdistBlock(pos)
	if out.Packet == nil {
		return
	}
	switch pkt := out.Packet.(type) {
	case WavePacket:
		// Accept the wave only from the parent, with a matching tag,
		// in the matching rank class, at the level clock position just
		// below us.
		if pkt.Tag != p.cfg.Tag || pos.Stage != 1 || out.From != p.parent || int32(pos.Rank) != p.ownRank() {
			return
		}
		if int64(p.level) != pos.VdOff+1 {
			return
		}
		p.waveRelay = true
		if p.vdist < 0 {
			p.vdist = int32(pos.D) + 1
		}
	case FloodPacket:
		if pkt.Tag == p.cfg.Tag && pos.Stage == 2 && p.vdist < 0 {
			p.vdist = int32(pos.D) + 1
		}
	}
}
