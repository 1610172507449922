package rings

import (
	"math/rand"

	"radiocast/internal/beep"
	"radiocast/internal/decay"
	"radiocast/internal/gst"
	"radiocast/internal/gstdist"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/rlnc"
)

// Protocol is the per-node Theorem 1.1 (K == 0) / Theorem 1.3 (K > 0)
// state machine.
type Protocol struct {
	cfg      Config
	loc      Locator // cached schedule arithmetic (hot: every Act/Observe)
	id       radio.NodeID
	isSource bool
	rng      *rand.Rand

	// Segment A.
	wave  *beep.Wave
	layer int32
	ring  int
	local int32

	// Segment B.
	gp      *gstdist.Protocol
	gpRing  int       // ring gp was built for (its config bakes in the tag)
	gpFresh bool      // gp is reset/new for the current run
	flat    *gst.Flat // shared by the run's nodes; this node writes only row id
	done    bool      // row id written

	sched mmv.Schedule

	// Segment C (single message).
	single *mmv.SingleMessage

	// Segment C (multi message).
	store *rlnc.Store

	bc      *mmv.Protocol
	bcEpoch int
	curGen  int
	curRLNC *mmv.RLNC
}

var _ radio.Protocol = (*Protocol)(nil)

// New creates the protocol for one node. f is the run's shared GST
// view (gst.NewFlat over all n nodes): the node writes its own row once
// segment B has built it, and its segment-C schedule reads that row.
// For Theorem 1.3 runs (cfg.K > 0), msgs supplies the source's
// messages and must be nil on every other node.
func New(cfg Config, f *gst.Flat, id radio.NodeID, isSource bool, msgs []rlnc.Message, rng *rand.Rand) *Protocol {
	p := &Protocol{
		cfg:      cfg,
		flat:     f,
		loc:      cfg.Locator(),
		id:       id,
		isSource: isSource,
		rng:      rng,
		wave:     beep.NewWave(isSource, cfg.WaveRounds()),
		layer:    -1,
		sched:    mmv.NewSchedule(cfg.N),
		bcEpoch:  -1,
		curGen:   -1,
	}
	if cfg.K > 0 {
		if isSource {
			p.store = rlnc.NewSourceStore(msgs, cfg.Batch, PayloadBits)
		} else {
			p.store = rlnc.NewStore(cfg.K, cfg.Batch, PayloadBits)
		}
	} else {
		p.single = mmv.NewSingleMessage(isSource, decay.Message{Data: 1})
	}
	return p
}

// Reset rewinds the protocol for a new run on the same Config,
// reusing every sub-structure: the wave, the GST construction
// protocol (reset lazily when segment B starts), the broadcast
// schedule protocol, and the RLNC store with all its row and solver
// storage. For Theorem 1.3 runs msgs supplies the source's fresh
// messages (copied, not retained) and must be nil elsewhere. The RNG
// binding is unchanged; reseeding it is the caller's job.
func (p *Protocol) Reset(isSource bool, msgs []rlnc.Message) {
	p.isSource = isSource
	p.wave.Reset(isSource, p.cfg.WaveRounds())
	p.layer = -1
	p.ring = 0
	p.local = 0
	p.gpFresh = false
	p.done = false
	gstdist.Result{}.Put(p.flat, p.id, false)
	p.bcEpoch = -1
	p.curGen = -1
	if p.cfg.K > 0 {
		if isSource {
			p.store.ResetSource(msgs)
		} else {
			p.store.Reset()
		}
	} else {
		p.single.Reset(isSource, decay.Message{Data: 1})
	}
}

// Has reports single-message completion for this node.
func (p *Protocol) Has() bool { return p.single != nil && p.single.Done() }

// Store returns the multi-message store (nil in single mode).
func (p *Protocol) Store() *rlnc.Store { return p.store }

// Rng exposes the protocol's RNG so reuse harnesses can reseed it.
func (p *Protocol) Rng() *rand.Rand { return p.rng }

// SingleContent returns the single-message content layer (nil in
// multi-message mode); harness runners hook its DoneSet here.
func (p *Protocol) SingleContent() *mmv.SingleMessage { return p.single }

// Layer returns the global BFS layer learned by the wave.
func (p *Protocol) Layer() int32 { return p.layer }

// finishWave harvests segment A.
func (p *Protocol) finishWave() {
	if p.layer >= 0 || p.wave == nil {
		return
	}
	p.layer = int32(p.wave.Level())
	if p.layer >= 0 {
		p.ring = p.cfg.RingOf(p.layer)
		p.local = p.cfg.LocalLevel(p.layer)
	}
}

// finishBuild harvests segment B.
func (p *Protocol) finishBuild() {
	if p.done || p.gp == nil {
		return
	}
	p.done = true
	p.gp.Result().Put(p.flat, p.id, p.local == 0)
}

// isOuter reports whether the node sits on its ring's outer border.
func (p *Protocol) isOuter() bool {
	return int(p.layer) == (p.ring+1)*p.cfg.W-1
}

// activeBatch returns the batch this node's ring handles in epoch e,
// or -1 (stride-2 pipeline: ring j is active in epochs j + 2b).
func (p *Protocol) activeBatch(e int) int {
	if p.cfg.Batch <= 0 {
		return -1
	}
	if (e-p.ring)%2 != 0 {
		return -1
	}
	b := (e - p.ring) / 2
	if b < 0 || b >= p.cfg.Batches() {
		return -1
	}
	return b
}

// spreadStart returns the global round at which segment C begins.
func (p *Protocol) spreadStart() int64 { return p.loc.wave + p.loc.build }

// Act implements radio.Protocol.
func (p *Protocol) Act(r int64) radio.Action {
	pos := p.loc.Locate(r)
	switch pos.Seg {
	case SegWave:
		act := p.wave.Act(r)
		if act.SleepUntil > p.loc.wave {
			act.SleepUntil = p.loc.wave
		}
		return act
	case SegBuild:
		p.finishWave()
		if p.layer < 0 {
			return radio.Sleep(1 << 62) // unreachable node
		}
		if p.gp == nil || (!p.gpFresh && p.gpRing != p.ring) {
			gcfg := p.cfg.GST
			gcfg.Tag = int32(p.ring % 2)
			// Boundary-packet tags are level mod 4 in GLOBAL layers:
			// anchoring each ring's local levels at (ring·W) mod 4 keeps
			// pipelined same-parity boundaries distinguishable across ring
			// borders, where they can come within one layer of each other.
			gcfg.TagBase = int32(p.ring * p.cfg.W % 4)
			p.gp = gstdist.New(gcfg, p.id, p.local == 0, p.local, p.rng)
			p.gpRing = p.ring
			p.gpFresh = true
		} else if !p.gpFresh {
			// Reset-reused run on the same ring: the baked-in tag still
			// matches, so the construction protocol rewinds in place.
			p.gp.Reset(p.local == 0, p.local)
			p.gpFresh = true
		}
		act := p.gp.Act(pos.Off)
		// Translate the sub-protocol's sleep into the global frame and
		// clamp it to segment C.
		if act.SleepUntil > 0 {
			act.SleepUntil += p.loc.wave
			if act.SleepUntil > p.spreadStart() {
				act.SleepUntil = p.spreadStart()
			}
		}
		return act
	case SegSpread:
		if p.layer < 0 {
			return radio.Sleep(1 << 62)
		}
		p.finishBuild()
		return p.spreadAct(r, pos)
	default:
		p.finishBuild()
		return radio.Sleep(1 << 62)
	}
}

// Observe implements radio.Protocol.
func (p *Protocol) Observe(r int64, out radio.Outcome) {
	pos := p.loc.Locate(r)
	switch pos.Seg {
	case SegWave:
		p.wave.Observe(r, out)
	case SegBuild:
		if p.gp != nil {
			p.gp.Observe(pos.Off, out)
		}
	case SegSpread:
		p.spreadObserve(pos, out)
	}
}

// epochStart returns the global round at which epoch e begins.
func (p *Protocol) epochStart(e int) int64 {
	return p.spreadStart() + int64(e)*p.loc.epochLen
}

func (p *Protocol) spreadAct(r int64, pos Pos) radio.Action {
	if p.cfg.Batch <= 0 {
		return p.singleSpreadAct(r, pos)
	}
	return p.multiSpreadAct(r, pos)
}

func (p *Protocol) spreadObserve(pos Pos, out radio.Outcome) {
	if out.Packet == nil {
		return
	}
	if p.cfg.Batch <= 0 {
		p.singleSpreadObserve(pos, out)
		return
	}
	p.multiSpreadObserve(pos, out)
}

// Single-message segment C (Theorem 1.1): epoch e is ring e's
// broadcast window followed by the e -> e+1 border handoff.

func (p *Protocol) singleSpreadAct(r int64, pos Pos) radio.Action {
	switch {
	case !pos.Handoff && pos.Epoch == p.ring:
		if p.bcEpoch != pos.Epoch {
			if p.bc == nil {
				p.bc = mmv.New(p.sched, p.flat, p.id, p.single, false, p.rng)
			} else {
				p.bc.Rebind(p.single)
			}
			p.bcEpoch = pos.Epoch
		}
		return p.bc.Act(pos.EpochOff)
	case pos.Handoff && pos.Epoch == p.ring && p.isOuter() && p.single.Done():
		slot := int(pos.EpochOff) % p.cfg.L()
		if p.rng.Float64() < decay.TransmitProb(slot) {
			return radio.Transmit(p.single.Fresh())
		}
		return radio.Listen
	case pos.Handoff && pos.Epoch == p.ring-1 && p.local == 0:
		return radio.Listen // roots receive the incoming handoff
	case pos.Epoch == p.ring-1 || pos.Epoch == p.ring:
		return radio.Listen // stay awake around our epochs
	default:
		return radio.Sleep(p.epochStart(p.nextRelevantEpoch(pos.Epoch)))
	}
}

// nextRelevantEpoch returns the first epoch >= e in which this node
// participates (its ring's epoch, or the preceding handoff for roots).
func (p *Protocol) nextRelevantEpoch(e int) int {
	if p.cfg.Batch <= 0 {
		if e >= p.ring {
			return p.cfg.Epochs() // nothing left: park at segment end
		}
		return p.ring - 1
	}
	for cand := e + 1; cand < p.cfg.Epochs(); cand++ {
		if p.activeBatch(cand) >= 0 || p.activeBatch(cand+1) >= 0 {
			return cand
		}
	}
	return p.cfg.Epochs()
}

func (p *Protocol) singleSpreadObserve(pos Pos, out radio.Outcome) {
	if _, ok := out.Packet.(radio.NoisePacket); ok {
		return
	}
	switch {
	case !pos.Handoff && pos.Epoch == p.ring && p.bc != nil && p.bcEpoch == pos.Epoch:
		p.bc.Observe(pos.EpochOff, out)
	default:
		// Handoff or opportunistic reception: a Message packet always
		// helps.
		p.single.OnReceive(out.Packet, out.From)
	}
}

// Multi-message segment C (Theorem 1.3): stride-2 pipeline of batches.

func (p *Protocol) multiSpreadAct(r int64, pos Pos) radio.Action {
	b := p.activeBatch(pos.Epoch)
	switch {
	case !pos.Handoff && b >= 0:
		if p.bcEpoch != pos.Epoch {
			p.curGen = b
			if p.curRLNC == nil {
				p.curRLNC = mmv.NewRLNC(p.store.Buffer(b), p.rng)
			} else {
				p.curRLNC.SetBuffer(p.store.Buffer(b))
			}
			if p.bc == nil {
				p.bc = mmv.New(p.sched, p.flat, p.id, p.curRLNC, false, p.rng)
			} else {
				p.bc.Rebind(p.curRLNC)
			}
			p.bcEpoch = pos.Epoch
		}
		return p.bc.Act(pos.EpochOff)
	case pos.Handoff && b >= 0 && p.isOuter() && p.store.CanDecodeGen(b):
		// Fountain handoff: fresh random combinations of the decoded
		// batch, Decay-paced, drawn into the generation's scratch air
		// packet (zero allocation; receivers copy before retaining).
		slot := int(pos.EpochOff) % p.cfg.L()
		if p.rng.Float64() < decay.TransmitProb(slot) {
			if pkt, ok := p.store.AirPacket(b, p.rng); ok {
				return radio.Transmit(pkt)
			}
		}
		return radio.Listen
	case pos.Handoff && p.local == 0 && p.activeBatch(pos.Epoch+1) >= 0:
		return radio.Listen // roots receive the incoming batch
	case b >= 0:
		return radio.Listen
	case !pos.Handoff && p.local == 0 && p.activeBatch(pos.Epoch+1) >= 0:
		// Inactive broadcast sub-window, but the preceding ring hands
		// over to us at the end of this epoch: sleep only to the
		// handoff sub-window.
		return radio.Sleep(p.epochStart(pos.Epoch) + p.loc.bcastWin)
	default:
		return radio.Sleep(p.epochStart(p.nextRelevantEpoch(pos.Epoch)))
	}
}

func (p *Protocol) multiSpreadObserve(pos Pos, out radio.Outcome) {
	pkt, ok := out.Packet.(*rlnc.Packet)
	if !ok {
		return
	}
	if !pos.Handoff && p.bc != nil && p.bcEpoch == pos.Epoch {
		p.bc.Observe(pos.EpochOff, out)
		return
	}
	// Handoff reception (and any opportunistic reception): feed the
	// store directly (Add copies; the packet aliases sender scratch).
	p.store.Add(*pkt)
}
