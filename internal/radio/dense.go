package radio

// The dense engine: the million-node counterpart of Network.
//
// Network drives one Protocol object per node through interface calls —
// ~100 bytes and several indirections per node, which is the right
// shape for the heterogeneous multi-message stacks (GST rings, coding
// buffers) but caps practical scale around 10^4..10^5 nodes. Dense
// inverts the ownership: a single DenseProtocol owns ALL node state in
// structure-of-arrays form (bitsets for membership, flat arrays for
// per-node scalars) and the engine talks to it in word-granular bulk
// operations. One round costs O(frontier + deliveries) with zero
// steady-state allocations, and the delivery pass parallelizes across
// cores while staying byte-identical to sequential execution.
//
// Semantics match Network's round structure — a listener receives iff
// exactly one neighbor's transmission survives the channel, CD turns
// >=2 survivors into the ⊤ symbol, transmitters never receive — with
// the deviations documented on Dense (polling, Polls/ActiveRounds
// accounting, packet-size checks at delivery). The channel rules and
// the round close live in core (core.go), which both engines embed:
// source suppression, the Observe rewrite, the sweep rule and the
// busy/silent/frontier close.
//
// Determinism at any worker count. Every pass either partitions
// disjoint state or accumulates commutative effects, so no pass has a
// merge order to keep:
//
//   - Collect: partitions are word-aligned node ranges; each writes
//     only its own transmitter-bitset words and its own list.
//   - The round's transmitter list is the in-order concatenation of the
//     per-partition lists — ascending node order regardless of the
//     partition count — and source suppression walks it sequentially.
//   - Deliver: each partition owns the listeners of its node range and
//     counts the surviving hits on them itself, into its own words of
//     the heard/multi bitsets and its own count/sender slots. A count
//     is a sum, and the recorded sender is read only when the count is
//     1, when it is the unique contributor; so the order in which hits
//     arrive is irrelevant. Channel DropLink draws are keyed by
//     (round, link), so evaluation order is irrelevant to them too (see
//     Config.Workers for the concurrency contract).
//   - Deliver/Observe touch disjoint per-listener state by contract and
//     are order-independent, and per-partition stats are summed in
//     partition order.
//
// Two counting directions give the same counts. Push walks each
// surviving transmitter's CSR row, restricted to the partition's node
// range (rows are sorted, so one binary search finds the start when
// there is more than one partition). Pull walks each eligible
// listener's own row against the survivors bitset; without a channel
// it stops at the second hit, and with any channel it calls DropLink
// on every hit, so Stats.Dropped and the count handed to Observe are
// exactly push's. The direction is chosen per round on the stepping
// goroutine from deterministic state alone (pullRound): push unless
// the surviving transmitters' degree sum reaches 2m/pullShare and
// exceeds the estimated cost of pulling (the eligible listeners times
// the average degree, or, without a channel, times the expected walk
// to a second hit when that is shorter).
//
// A pushed round resolves the listeners it touched, in first-touch
// order; a pulled round and the Observe sweep, which only a channel
// that can rewrite observations needs (core.sweep), resolve in
// ascending node order. Deliver is order-independent by contract, so
// either direction, and a link-only channel (LinkOnlyChannel) on the
// ideal path, yield exactly what the sweep would.
//
// The parallel gate (previous round's transmitter count >= denseParGate)
// depends only on deterministic state, so the sequential fallback — the
// exact same partition loops, run inline — kicks in at the same rounds
// for every worker count.

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"radiocast/internal/graph"
)

// DenseProtocol is the bulk, structure-of-arrays counterpart of
// Protocol: one value owns the state of every node. The engine calls,
// per round r:
//
//  1. ListenWords(r) exactly once, on the stepping goroutine, then
//     AppendTransmitters(r, lo, hi, dst) for each partition —
//     concurrently when Config.Workers > 1, so it must not touch shared
//     mutable state beyond the [lo, hi) range's. Since ListenWords
//     precedes every other call of the round, a protocol may compute
//     its per-round values there and read them for the rest of the
//     round.
//  2. Packet(r, v) for transmitters whose packet is actually delivered
//     (unlike Network, undelivered packets are never materialized).
//  3. Deliver(r, v, out) for every listener with an observation —
//     possibly concurrently for different v, in no particular order.
//  4. EndRound(r) once, sequentially: apply the round's accumulated
//     effects (promote newly informed nodes, advance schedules).
type DenseProtocol interface {
	// AppendTransmitters appends the transmitting nodes in [lo, hi) for
	// round r to dst in ascending order and returns the extended slice.
	// lo is word-aligned (multiple of 64); hi is word-aligned or n.
	AppendTransmitters(r int64, lo, hi NodeID, dst []NodeID) []NodeID
	// ListenWords returns the listener bitset for round r as 64-bit
	// words (bit j of word i = node 64i+j), ⌈n/64⌉ words with zero tail
	// bits. The engine reads it throughout the round and additionally
	// masks out transmitters, so the protocol may report "every
	// non-informed node" style supersets cheaply.
	ListenWords(r int64) []uint64
	// Packet returns what node v transmits in round r. Called only for
	// v that AppendTransmitters reported this round; must be stable
	// within the round and is called concurrently.
	Packet(r int64, v NodeID) Packet
	// Deliver hands listener v its observation for round r (a packet,
	// or ⊤ under collision detection). Calls for distinct v may be
	// concurrent and in any order; the effect must be confined to
	// v-local state (per-node array slots, v's own bitset bit, v's word
	// of a bitset, since partitions own whole words) and be independent
	// of delivery order within the round. The one shared write allowed
	// is an atomic OR into a summary word that several partitions' words
	// map to (Spread.Hear). Cross-node effects belong in EndRound.
	Deliver(r int64, v NodeID, out Outcome)
	// EndRound runs sequentially after all deliveries of round r.
	EndRound(r int64)
}

// denseParGate is the minimum previous-round transmitter count at
// which a multi-worker Dense actually fans out; below it the partition
// loops run inline (identical results, no synchronization cost).
const denseParGate = 64

// pullShare gates the direction rule: a round whose surviving
// transmitters' degree sum is below 2m/pullShare pushes without
// looking further. At or above it, the popcount of the eligible
// listeners (n/64 words) costs at most 1/(average degree) of the push
// it may replace (at least 2m/64 edge visits).
const pullShare = 64

// Counting directions for denseDirection.
const (
	dirAuto = iota // the per-round rule (pullRound)
	dirPush
	dirPull
)

// denseDirection forces every round's counting direction. It is a test
// seam, not configuration: production code never sets it, and both
// forced directions must reproduce the automatic rule's runs byte for
// byte.
var denseDirection = dirAuto

// partStats accumulates one partition's counter deltas for the current
// round; summed into Stats in index order.
type partStats struct {
	deliveries int64
	collisions int64
	dropped    int64
	jammed     int64
}

// Dense runs a DenseProtocol over a graph. Create with NewDense, drive
// with Step/Run/RunUntil, and Close when done (Close stops the worker
// pool; it is a no-op for Workers <= 1).
//
// Documented deviations from Network: every node is polled every round
// (no sleeping — the SoA passes make polling O(words), so ActiveRounds
// counts rounds with at least one transmitter and Polls stays 0);
// Config.Tracer is ignored; MaxPacketBits is enforced on delivered
// packets rather than at transmission.
type Dense struct {
	core
	proto  DenseProtocol
	n      int
	nWords int

	parts        int // partition/worker count (>= 1)
	wordsPerPart int // words per partition (last may be short)

	lastTx int // previous round's transmitter count (parallel gate)

	txWords []uint64   // current round's transmitter bitset
	txLists [][]NodeID // per-partition transmitter lists (ascending)
	allTx   []NodeID   // concatenation, ascending node order
	listenW []uint64   // this round's listener words (protocol-owned)
	effTx   []NodeID   // surviving transmitters: allTx or keptTx
	touched [][]NodeID // per-owner listeners first heard this round (push)
	perPart []partStats

	// Push scratch. heard marks the listeners hit this round and multi
	// those hit at least twice; both are all-zero between rounds, since
	// each partition clears the words of its touched listeners. hearFrom
	// is written at a listener's first hit and hearCount from its second
	// on, so a touched listener's count is 1 unless its multi bit is set.
	heard, multi []uint64
	hearCount    []int32
	hearFrom     []NodeID

	// pull is this round's counting direction. A pulled round reads the
	// surviving transmitters from survW: txWords, or survWords (built
	// from effTx, cleared after the round) when suppression dropped one.
	pull      bool
	survW     []uint64
	survWords []uint64
	pulls     int64 // rounds counted by pull since NewDense/Reset

	// Worker pool: spawned lazily on the first parallel round. Phase
	// dispatch is one channel send per worker per phase and one
	// WaitGroup wait — no per-round allocations.
	curRound int64
	phase    int
	work     []chan struct{}
	wg       sync.WaitGroup
	started  bool
	closed   bool
}

const (
	phaseCollect = iota
	phaseDeliver // count the surviving hits, then resolve or sweep
)

// NewDense creates a dense engine for proto over g. cfg.Workers > 1
// enables the partitioned parallel passes (byte-identical results at
// any count); cfg.Tracer is ignored.
func NewDense(g *graph.Graph, cfg Config, proto DenseProtocol) *Dense {
	n := g.N()
	nWords := (n + 63) / 64
	parts := cfg.Workers
	if parts < 1 {
		parts = 1
	}
	if parts > nWords && nWords > 0 {
		parts = nWords // a partition needs at least one word
	}
	if nWords == 0 {
		parts = 1
	}
	wordsPerPart := (nWords + parts - 1) / parts
	if wordsPerPart > 0 {
		// Rounding up can leave trailing partitions without a word (5
		// words over 4 workers split 2+2+1+0); drop them, so every
		// partition starts on a word boundary below n.
		parts = (nWords + wordsPerPart - 1) / wordsPerPart
	}
	d := &Dense{
		core:         newCore(g, cfg),
		proto:        proto,
		n:            n,
		nWords:       nWords,
		parts:        parts,
		wordsPerPart: wordsPerPart,
		txWords:      make([]uint64, nWords),
		txLists:      make([][]NodeID, parts),
		hearCount:    make([]int32, n),
		hearFrom:     make([]NodeID, n),
		touched:      make([][]NodeID, parts),
		perPart:      make([]partStats, parts),
		survWords:    make([]uint64, nWords),
	}
	push := make([]uint64, 2*nWords)
	d.heard, d.multi = push[:nWords:nWords], push[nWords:]
	return d
}

// Close stops the worker pool. The engine must not be stepped after
// Close. Safe to call multiple times and on never-parallel engines.
func (d *Dense) Close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.started {
		for _, c := range d.work {
			if c != nil { // slot 0 runs on the stepping goroutine
				close(c)
			}
		}
	}
}

// Reset rewinds the engine to its post-NewDense state — round counter,
// statistics, transmitter bitset and lists, the push and survivors
// bitsets, the per-partition counters, the parallel gate — and
// installs proto for the next run, without reallocating any scratch or
// restarting the worker pool. A Reset-reused run is byte-identical to
// a freshly constructed engine with the same configuration, also after
// a run cut short by a panic in the middle of a round. The
// protocol is taken fresh because dense protocols own all node state
// in SoA form; rewinding that state is the protocol's own business.
func (d *Dense) Reset(proto DenseProtocol) {
	d.proto = proto
	d.round = 0
	d.stats = Stats{}
	d.lastTx = 0
	d.pulls = 0
	for i := range d.txWords {
		d.txWords[i] = 0
	}
	for p := range d.txLists {
		d.txLists[p] = d.txLists[p][:0]
	}
	d.allTx = d.allTx[:0]
	d.keptTx = d.keptTx[:0]
	d.effTx = nil
	d.listenW = nil
	clear(d.heard)
	clear(d.multi)
	clear(d.survWords)
	clear(d.perPart)
}

// partNodeRange returns partition p's node range [lo, hi).
func (d *Dense) partNodeRange(p int) (NodeID, NodeID) {
	lo := p * d.wordsPerPart * 64
	hi := (p + 1) * d.wordsPerPart * 64
	if hi > d.n {
		hi = d.n
	}
	return NodeID(lo), NodeID(hi)
}

// ensureWorkers lazily spawns the pool (parts-1 goroutines; partition 0
// of every phase runs on the stepping goroutine).
func (d *Dense) ensureWorkers() {
	if d.started {
		return
	}
	d.started = true
	d.work = make([]chan struct{}, d.parts)
	for w := 1; w < d.parts; w++ {
		c := make(chan struct{}, 1)
		d.work[w] = c
		go func(w int, c chan struct{}) {
			for range c {
				d.exec(d.phase, d.curRound, w)
				d.wg.Done()
			}
		}(w, c)
	}
}

// runPhase executes one phase across all partitions — fanned out when
// parallel, inline otherwise. The same per-partition code runs either
// way, which is what makes the gate invisible in the results.
func (d *Dense) runPhase(phase int, r int64, parallel bool) {
	if parallel && d.parts > 1 {
		d.ensureWorkers()
		d.phase = phase
		d.curRound = r
		d.wg.Add(d.parts - 1)
		for w := 1; w < d.parts; w++ {
			d.work[w] <- struct{}{}
		}
		d.exec(phase, r, 0)
		d.wg.Wait()
		return
	}
	for w := 0; w < d.parts; w++ {
		d.exec(phase, r, w)
	}
}

func (d *Dense) exec(phase int, r int64, w int) {
	if phase == phaseCollect {
		d.execCollect(r, w)
		return
	}
	d.execDeliver(r, w)
}

// execCollect clears partition w's previous transmitter bits and
// gathers this round's transmitters for its node range.
func (d *Dense) execCollect(r int64, w int) {
	lst := d.txLists[w]
	for _, v := range lst {
		d.txWords[v>>6] &^= 1 << (uint(v) & 63)
	}
	lo, hi := d.partNodeRange(w)
	lst = d.proto.AppendTransmitters(r, lo, hi, lst[:0])
	prev := lo - 1
	for _, v := range lst {
		if v <= prev || v >= hi {
			panic(fmt.Sprintf("radio: AppendTransmitters violated order/range: %d after %d in [%d,%d)",
				v, prev, lo, hi))
		}
		prev = v
		d.txWords[v>>6] |= 1 << (uint(v) & 63)
	}
	d.txLists[w] = lst
}

// execDeliver is owner partition w's whole delivery: it counts the
// surviving hits on its listeners and finalizes them. A pushed round
// counts into the push scratch first, then resolves the touched
// listeners (no channel, or a link-only one whose DropLink ran while
// counting) or sweeps every listener through Observe, and clears the
// scratch words it wrote. A pulled round counts each listener as the
// listener sweep reaches it.
func (d *Dense) execDeliver(r int64, w int) {
	st := &d.perPart[w]
	if d.pull {
		d.execSweep(r, w, st)
		return
	}
	d.execPush(r, w, st)
	touched := d.touched[w]
	if d.sweep {
		d.execSweep(r, w, st)
	} else {
		for _, u := range touched {
			count, from := d.pushed(u)
			d.resolve(r, u, count, from, st)
		}
	}
	for _, u := range touched {
		d.heard[u>>6], d.multi[u>>6] = 0, 0
	}
}

// pushed returns listener u's surviving hit count and first sender in
// a pushed round, from the push scratch.
func (d *Dense) pushed(u NodeID) (count int, from NodeID) {
	wi, bit := u>>6, uint64(1)<<(uint(u)&63)
	switch {
	case d.heard[wi]&bit == 0:
		return 0, 0
	case d.multi[wi]&bit == 0:
		return 1, d.hearFrom[u]
	}
	return int(d.hearCount[u]), d.hearFrom[u]
}

// execPush counts, for owner partition w, every surviving
// (transmitter, listener) hit on its node range into the push scratch,
// and records the listeners it touched first.
func (d *Dense) execPush(r int64, w int, st *partStats) {
	ch := d.cfg.Channel
	lo, hi := d.partNodeRange(w)
	split := d.parts > 1
	offsets, edges := d.offsets, d.edges
	listen, tx := d.listenW, d.txWords
	heard, multi, count, from := d.heard, d.multi, d.hearCount, d.hearFrom
	touched := d.touched[w][:0]
	for _, t := range d.effTx {
		row := edges[offsets[t]:offsets[t+1]]
		if split {
			if len(row) == 0 || row[len(row)-1] < lo || row[0] >= hi {
				continue
			}
			i, _ := slices.BinarySearch(row, lo)
			row = row[i:]
		}
		for _, u := range row {
			if u >= hi {
				break
			}
			wi, bit := u>>6, uint64(1)<<(uint(u)&63)
			if (listen[wi]&^tx[wi])&bit == 0 {
				continue // transmitting or not listening
			}
			if ch != nil && ch.DropLink(r, t, u) {
				st.dropped++
				continue
			}
			switch {
			case heard[wi]&bit == 0:
				heard[wi] |= bit
				from[u] = t
				touched = append(touched, u)
			case multi[wi]&bit == 0:
				multi[wi] |= bit
				count[u] = 2
			default:
				count[u]++
			}
		}
	}
	d.touched[w] = touched
}

// pullHits counts the surviving transmissions reaching listener u by
// walking u's own row against the survivors bitset, and returns the
// first sender. Without a channel it stops at the second hit (only
// 0, 1 and >= 2 matter); with one it visits every hit, calling DropLink
// as push does, so Dropped and the exact count seen by Observe match.
func (d *Dense) pullHits(r int64, u NodeID, st *partStats) (count int, from NodeID) {
	ch := d.cfg.Channel
	surv := d.survW
	for _, t := range d.edges[d.offsets[u]:d.offsets[u+1]] {
		if surv[t>>6]&(1<<(uint(t)&63)) == 0 {
			continue
		}
		if ch != nil {
			if ch.DropLink(r, t, u) {
				st.dropped++
				continue
			}
		} else if count == 1 {
			return 2, from
		}
		if count == 0 {
			from = t
		}
		count++
	}
	return count, from
}

// execSweep walks owner partition w's eligible listeners (listening
// and not transmitting) in ascending node order, counting each one's
// hits by pull or reading push's scratch, and finalizes it:
// through core.rewrite under a channel that may rewrite observations —
// every eligible listener, not only neighbors of transmitters, so the
// channel can inject observations into silent receptions (over all
// listeners rather than awake ones: dense nodes are always awake) —
// else by resolve.
func (d *Dense) execSweep(r int64, w int, st *partStats) {
	wLo := w * d.wordsPerPart
	wHi := wLo + d.wordsPerPart
	if wHi > d.nWords {
		wHi = d.nWords
	}
	listen, tx := d.listenW, d.txWords
	for wi := wLo; wi < wHi; wi++ {
		wordBits := listen[wi] &^ tx[wi]
		for wordBits != 0 {
			u := NodeID(wi<<6 + bits.TrailingZeros64(wordBits))
			wordBits &= wordBits - 1
			var count int
			var from NodeID
			if d.pull {
				count, from = d.pullHits(r, u, st)
			} else {
				count, from = d.pushed(u)
			}
			if d.sweep {
				d.observe(r, u, count, from, st)
			} else {
				d.resolve(r, u, count, from, st)
			}
		}
	}
}

// resolve delivers listener u's ideal observation for count surviving
// hits: the packet of the unique sender from, or ⊤ for >= 2 under CD.
func (d *Dense) resolve(r int64, u NodeID, count int, from NodeID, st *partStats) {
	switch {
	case count == 1:
		pkt := d.proto.Packet(r, from)
		d.checkBits(u, pkt)
		d.proto.Deliver(r, u, Outcome{Packet: pkt, From: from})
		st.deliveries++
	case count >= 2 && d.cfg.CollisionDetection:
		d.proto.Deliver(r, u, Outcome{Collision: true})
		st.collisions++
	}
}

// observe finalizes listener u's observation through the channel's
// Observe rewrite (core.rewrite) and delivers it.
func (d *Dense) observe(r int64, u NodeID, count int, from NodeID, st *partStats) {
	var pkt Packet
	if count == 1 {
		pkt = d.proto.Packet(r, from)
	}
	out, ok, jammed := d.rewrite(r, u, count, from, pkt)
	if jammed {
		st.jammed++
	}
	if !ok {
		return
	}
	if out.Collision {
		st.collisions++
	} else {
		d.checkBits(u, out.Packet)
		st.deliveries++
	}
	d.proto.Deliver(r, u, out)
}

func (d *Dense) checkBits(u NodeID, pkt Packet) {
	if d.cfg.MaxPacketBits > 0 && pkt.Bits() > d.cfg.MaxPacketBits {
		panic(fmt.Sprintf("radio: packet %T of %d bits delivered to node %d exceeds budget %d",
			pkt, pkt.Bits(), u, d.cfg.MaxPacketBits))
	}
}

// pullRound is the per-round direction rule. It reads only the round's
// deterministic state, so every worker count picks the same direction.
// Push costs the surviving transmitters' degree sum. Pull walks the
// eligible listeners' rows: the average degree 2m/n each with a
// channel, and without one only to the second hit, which a listener
// meets after about 2n/|tx| neighbors when the transmitters are spread
// evenly. Rounds whose degree sum is below 2m/pullShare push at once,
// paying only the sum.
func (d *Dense) pullRound() bool {
	switch denseDirection {
	case dirPush:
		return false
	case dirPull:
		return true
	}
	var deg int64
	for _, t := range d.effTx {
		deg += int64(d.offsets[t+1] - d.offsets[t])
	}
	twoM := int64(d.offsets[d.n])
	if deg == 0 || deg*pullShare < twoM {
		return false
	}
	var eligible int64
	for i, lw := range d.listenW {
		eligible += int64(bits.OnesCount64(lw &^ d.txWords[i]))
	}
	n, tx := int64(d.n), int64(len(d.effTx))
	return eligible*twoM < deg*n || (d.cfg.Channel == nil && eligible*2*n < deg*tx)
}

// Step executes exactly one round.
func (d *Dense) Step() {
	if d.closed {
		panic("radio: Step on closed Dense")
	}
	r := d.round
	// The gate reads last round's transmitter count — deterministic
	// state — so sequential and parallel execution agree on which
	// rounds fan out (and produce identical results either way).
	par := d.parts > 1 && d.lastTx >= denseParGate

	d.listenW = d.proto.ListenWords(r)
	if len(d.listenW) != d.nWords {
		panic(fmt.Sprintf("radio: ListenWords returned %d words, want %d", len(d.listenW), d.nWords))
	}
	d.runPhase(phaseCollect, r, par)

	d.allTx = d.allTx[:0]
	for _, lst := range d.txLists {
		d.allTx = append(d.allTx, lst...)
	}
	totalTx := len(d.allTx)
	d.stats.Transmissions += int64(totalTx)
	if totalTx > 0 {
		d.stats.ActiveRounds++
	}

	// Suppression, RoundStart and the direction rule run on the
	// stepping goroutine over the ascending transmitter list, at any
	// worker count.
	d.effTx = d.survivors(r, d.allTx)
	d.pull = d.pullRound()
	d.survW = d.txWords
	suppressed := d.pull && len(d.effTx) < totalTx
	if d.pull {
		d.pulls++
	}
	if suppressed {
		for _, t := range d.effTx {
			d.survWords[t>>6] |= 1 << (uint(t) & 63)
		}
		d.survW = d.survWords
	}
	d.runPhase(phaseDeliver, r, par)
	if suppressed {
		for _, t := range d.effTx {
			d.survWords[t>>6] = 0
		}
	}

	for p := range d.perPart {
		st := &d.perPart[p]
		d.stats.Deliveries += st.deliveries
		d.stats.CollisionObs += st.collisions
		d.stats.Dropped += st.dropped
		d.stats.Jammed += st.jammed
		*st = partStats{}
	}

	d.proto.EndRound(r)
	d.lastTx = totalTx
	d.closeRound(r, len(d.effTx))
}

// Run executes rounds until the round counter reaches limit.
func (d *Dense) Run(limit int64) { d.RunUntil(limit, never) }

// RunUntil executes rounds until pred returns true (checked after
// every round) or the counter reaches limit; it reports the round
// count at stop and whether pred was satisfied.
func (d *Dense) RunUntil(limit int64, pred func() bool) (int64, bool) {
	if pred() {
		return d.round, true
	}
	for d.round < limit {
		d.Step()
		if pred() {
			return d.round, true
		}
	}
	return d.round, false
}
