package main

// Tracing from outside the program: spans around the calls into each
// library layer, plus a radio.DenseProtocol wrapper and a radio.Channel
// wrapper that count and time every callback the dense engine makes.
// Nothing here changes what the wrapped values compute; the self-test
// checks that traced and untraced runs give identical outputs.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"

	"radiocast/internal/radio"
)

// sampleEvery is the timing sample rate of the per-listener and
// per-edge callbacks (Deliver, DropLink, Observe): one call in
// sampleEvery is timed and its duration scaled up. Every call is still
// counted exactly.
const sampleEvery = 16

// parGate mirrors the dense engine's parallel gate: a round fans out to
// the workers when the previous round had at least this many
// transmitters. It is used only to turn summed callback time on
// concurrent phases into wall time.
const parGate = 64

// timerNs is the cost of an empty timed window, subtracted from every
// timed callback so that short calls are not inflated by the clock.
var timerNs = calibrateTimer()

func calibrateTimer() int64 {
	d := make([]float64, 1001)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return int64(median(d))
}

// since returns the time since t0 less the clock's own cost.
func since(t0 time.Time) int64 {
	return max(int64(time.Since(t0))-timerNs, 0)
}

// span is one timed interval of one op. Parent is -1 for the op's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Per-step aggregates (radio.step only).
	ProtoNs   int64 `json:"proto_ns,omitempty"`
	ChannelNs int64 `json:"channel_ns,omitempty"`
	Tx        int64 `json:"tx,omitempty"`
}

// tracer records spans in memory. A disabled tracer only runs the
// wrapped calls, so the same op code serves both modes.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newTracer(on bool) *tracer { return &tracer{on: on, base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) int64 {
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
	return t.spans[id].End - t.spans[id].Start
}

// span runs f inside a span named name and returns its duration (0
// when tracing is off).
func (t *tracer) span(name string, f func()) int64 {
	if !t.on {
		f()
		return 0
	}
	id := t.begin(name)
	f()
	return t.end(id)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shard holds one engine partition's callback counters. Callbacks pick
// the shard of the partition that runs them, so the atomics are not
// contended; the padding keeps shards on separate cache lines.
type shard struct {
	collectNs    atomic.Int64
	tx           atomic.Int64
	edgeVisits   atomic.Int64
	deliverNs    atomic.Int64
	deliverCalls atomic.Int64
	dropNs       atomic.Int64
	dropCalls    atomic.Int64
	drops        atomic.Int64
	observeNs    atomic.Int64
	observeCalls atomic.Int64
	identity     atomic.Int64
	_            [40]byte
}

// counts are the deterministic work counters of one op.
type counts struct {
	EdgeVisits    int64
	DeliverCalls  int64
	ListenerWords int64
	DropCalls     int64
	Drops         int64
	ObserveCalls  int64
	Identity      int64
}

// callTimes is the wall time of one op's engine callbacks by layer.
type callTimes struct {
	collect, deliver, endRound, channel int64
}

// probe wraps one dense protocol (and optionally its channel) for one
// run and closes a radio.step span after every round.
type probe struct {
	t       *tracer
	inner   radio.DenseProtocol
	ch      radio.Channel
	offsets []int32
	parts   int
	split   []radio.NodeID // first node of each engine partition
	nWords  int

	shards    []shard
	bounds    []radio.NodeID // scatter chunk starts of the current round
	seqListen int64          // ListenWords ns this round
	seqEnd    int64          // EndRound ns this round
	seqChan   int64          // SuppressTransmit + RoundStart ns this round
	lastTx    int64
	stepFrom  int64

	c     counts
	times callTimes
}

func newProbe(t *tracer, inner radio.DenseProtocol, ch radio.Channel, offsets []int32, workers int) *probe {
	n := len(offsets) - 1
	nWords := (n + 63) / 64
	parts := workers
	if parts < 1 {
		parts = 1
	}
	if parts > nWords && nWords > 0 {
		parts = nWords
	}
	split := make([]radio.NodeID, parts)
	for w := range split {
		split[w] = radio.NodeID(w * ((nWords + parts - 1) / parts) * 64)
	}
	return &probe{
		t: t, inner: inner, ch: ch, offsets: offsets, parts: parts, split: split, nWords: nWords,
		shards: make([]shard, parts), bounds: make([]radio.NodeID, parts),
	}
}

// shardOf returns the shard of the partition whose range (split for
// node-owned callbacks, the round's scatter chunks for DropLink) holds v.
func (p *probe) shardOf(starts []radio.NodeID, v radio.NodeID) *shard {
	w := 0
	for w+1 < p.parts && v >= starts[w+1] {
		w++
	}
	return &p.shards[w]
}

func (p *probe) owner(v radio.NodeID) *shard { return p.shardOf(p.split, v) }

// AppendTransmitters implements radio.DenseProtocol.
func (p *probe) AppendTransmitters(r int64, lo, hi radio.NodeID, dst []radio.NodeID) []radio.NodeID {
	s := p.owner(lo)
	t0 := time.Now()
	from := len(dst)
	dst = p.inner.AppendTransmitters(r, lo, hi, dst)
	s.collectNs.Add(since(t0))
	var visits int64
	for _, v := range dst[from:] {
		visits += int64(p.offsets[v+1] - p.offsets[v])
	}
	s.edgeVisits.Add(visits)
	s.tx.Add(int64(len(dst) - from))
	return dst
}

// ListenWords implements radio.DenseProtocol.
func (p *probe) ListenWords(r int64) []uint64 {
	t0 := time.Now()
	w := p.inner.ListenWords(r)
	p.seqListen += since(t0)
	return w
}

// Packet implements radio.DenseProtocol. It is a constant-time accessor
// and is not timed on its own.
func (p *probe) Packet(r int64, v radio.NodeID) radio.Packet { return p.inner.Packet(r, v) }

// Deliver implements radio.DenseProtocol.
func (p *probe) Deliver(r int64, v radio.NodeID, out radio.Outcome) {
	s := p.owner(v)
	if s.deliverCalls.Add(1)%sampleEvery != 0 {
		p.inner.Deliver(r, v, out)
		return
	}
	t0 := time.Now()
	p.inner.Deliver(r, v, out)
	s.deliverNs.Add(sampleEvery * since(t0))
}

// EndRound implements radio.DenseProtocol.
func (p *probe) EndRound(r int64) {
	t0 := time.Now()
	p.inner.EndRound(r)
	p.seqEnd += since(t0)
}

// RoundStart implements radio.Channel. It also records the scatter
// chunk boundaries, so DropLink can find its partition's shard.
func (p *probe) RoundStart(r int64, tx []radio.NodeID) {
	t0 := time.Now()
	p.ch.RoundStart(r, tx)
	for w := range p.bounds {
		if i := len(tx) * w / p.parts; i < len(tx) {
			p.bounds[w] = tx[i]
		} else {
			p.bounds[w] = radio.NodeID(len(p.offsets))
		}
	}
	p.seqChan += since(t0)
}

// SuppressTransmit implements radio.Channel.
func (p *probe) SuppressTransmit(r int64, v radio.NodeID) bool {
	t0 := time.Now()
	ok := p.ch.SuppressTransmit(r, v)
	p.seqChan += since(t0)
	return ok
}

// DropLink implements radio.Channel.
func (p *probe) DropLink(r int64, from, to radio.NodeID) bool {
	s := p.shardOf(p.bounds, from)
	var drop bool
	if s.dropCalls.Add(1)%sampleEvery != 0 {
		drop = p.ch.DropLink(r, from, to)
	} else {
		t0 := time.Now()
		drop = p.ch.DropLink(r, from, to)
		s.dropNs.Add(sampleEvery * since(t0))
	}
	if drop {
		s.drops.Add(1)
	}
	return drop
}

// Observe implements radio.Channel.
func (p *probe) Observe(r int64, to radio.NodeID, count int, out radio.Outcome, ok bool) (radio.Outcome, bool) {
	s := p.owner(to)
	var fin radio.Outcome
	var fok bool
	if s.observeCalls.Add(1)%sampleEvery != 0 {
		fin, fok = p.ch.Observe(r, to, count, out, ok)
	} else {
		t0 := time.Now()
		fin, fok = p.ch.Observe(r, to, count, out, ok)
		s.observeNs.Add(sampleEvery * since(t0))
	}
	if fok == ok && fin.Collision == out.Collision && fin.From == out.From && samePacket(fin.Packet, out.Packet) {
		s.identity.Add(1)
	}
	return fin, fok
}

// samePacket compares two packets without panicking on an
// incomparable dynamic type (which then counts as changed).
func samePacket(a, b radio.Packet) bool {
	if a == nil || b == nil {
		return a == b
	}
	ta := reflect.TypeOf(a)
	return ta == reflect.TypeOf(b) && ta.Comparable() && a == b
}

// done wraps the run's completion predicate. The engine calls it once
// before the first round and after every round, with its workers idle,
// so it is where a round's span is closed and the shards are folded.
func (p *probe) done(pred func() bool) func() bool {
	return func() bool {
		now := p.t.now()
		if p.stepFrom != 0 {
			p.closeStep(now)
		}
		p.stepFrom = now
		return pred()
	}
}

// closeStep folds the round's shards into the op's counters and
// records the radio.step span. Callback time on a fanned-out round is
// summed over the workers, so it is divided by the partition count to
// give wall time.
func (p *probe) closeStep(now int64) {
	var tx, collect, deliver, chanConc int64
	// The call counters are never reset, so the timing sample stays one
	// call in sampleEvery across rounds; they are read as op totals.
	var deliverCalls, dropCalls, observeCalls int64
	for i := range p.shards {
		s := &p.shards[i]
		tx += s.tx.Swap(0)
		collect += s.collectNs.Swap(0)
		deliver += s.deliverNs.Swap(0)
		chanConc += s.dropNs.Swap(0) + s.observeNs.Swap(0)
		p.c.EdgeVisits += s.edgeVisits.Swap(0)
		p.c.Drops += s.drops.Swap(0)
		p.c.Identity += s.identity.Swap(0)
		deliverCalls += s.deliverCalls.Load()
		dropCalls += s.dropCalls.Load()
		observeCalls += s.observeCalls.Load()
	}
	p.c.DeliverCalls, p.c.DropCalls, p.c.ObserveCalls = deliverCalls, dropCalls, observeCalls
	if p.parts > 1 && p.lastTx >= parGate {
		collect /= int64(p.parts)
		deliver /= int64(p.parts)
		chanConc /= int64(p.parts)
	}
	if p.ch != nil {
		p.c.ListenerWords += int64(p.nWords)
	}
	collect += p.seqListen
	p.times.collect += collect
	p.times.deliver += deliver
	p.times.endRound += p.seqEnd
	p.times.channel += chanConc + p.seqChan
	p.t.spans = append(p.t.spans, span{
		Op: p.t.op, ID: len(p.t.spans), Parent: p.t.open[len(p.t.open)-1], Name: "radio.step",
		Start: p.stepFrom, End: now,
		ProtoNs: collect + deliver + p.seqEnd, ChannelNs: chanConc + p.seqChan, Tx: tx,
	})
	p.lastTx = tx
	p.seqListen, p.seqEnd, p.seqChan = 0, 0, 0
}
