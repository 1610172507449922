// Package radio implements the synchronous radio network model of the
// paper (Section 1.1, following Chlamtac–Kutten):
//
//   - Time proceeds in synchronous rounds over an undirected graph.
//   - In each round every node either transmits one packet or listens.
//   - A listening node receives a packet iff exactly one neighbor
//     transmits in that round.
//   - With collision detection (CD), a listener with two or more
//     transmitting neighbors observes the collision symbol ⊤; without
//     CD it observes silence.
//   - Transmitters receive nothing in rounds they transmit.
//
// The engine counts rounds faithfully while supporting node sleeping:
// a protocol that can prove (from the global clock) that it will
// discard all input until round X may return SleepUntil=X, letting the
// engine fast-forward wall-clock work through globally idle windows.
// The reported round counts always include idle rounds.
package radio

import (
	"fmt"

	"radiocast/internal/graph"
	"radiocast/internal/obs"
)

// NodeID identifies a node (0..N-1), aliasing graph.NodeID.
type NodeID = graph.NodeID

// Packet is the unit of transmission. Protocols define their own
// packet types; Bits reports the packet's size for enforcement of the
// B = Θ(log n) packet-size model.
type Packet interface {
	Bits() int
}

// Outcome is what a listening node observes at the end of a round in
// which at least one neighbor transmitted.
type Outcome struct {
	// Collision is true when two or more neighbors transmitted and
	// collision detection is enabled (the ⊤ symbol).
	Collision bool
	// Packet is the received packet when exactly one neighbor
	// transmitted; nil otherwise.
	Packet Packet
	// From is the transmitting neighbor when Packet is non-nil.
	From NodeID
}

// Action is a node's decision for one round.
type Action struct {
	// Transmit indicates the node transmits Packet this round.
	Transmit bool
	// Packet to transmit; must be non-nil when Transmit is true.
	Packet Packet
	// SleepUntil, when greater than the current round + 1, promises
	// that the node will ignore every reception before that round; the
	// engine will not poll or notify the node until then. Zero means
	// "wake next round".
	SleepUntil int64
}

// Sleep is a convenience listening action with a wake round.
func Sleep(until int64) Action { return Action{SleepUntil: until} }

// Listen is the default action: listen this round, wake next round.
var Listen = Action{}

// Transmit is a convenience transmitting action.
func Transmit(p Packet) Action { return Action{Transmit: true, Packet: p} }

// Protocol is the per-node state machine driven by the engine.
//
// The engine calls Act exactly once per round for every awake node,
// then delivers at most one Observe for that round to nodes that
// listened and had at least one transmitting neighbor. Silence is not
// signaled: a node that listened and receives no Observe callback for
// round r heard silence in round r.
type Protocol interface {
	Act(r int64) Action
	Observe(r int64, out Outcome)
}

// Tracer receives engine events; used by tests to assert schedule
// invariants (e.g. Lemma 3.5 fast-slot collision-freeness).
type Tracer interface {
	// OnRound fires after actions are collected, before delivery.
	// transmitters aliases engine storage: copy to retain.
	OnRound(r int64, transmitters []NodeID)
	// OnDeliver fires for every Observe delivered: in first-touch
	// order (listeners as transmissions first reach them) on the ideal
	// channel and under a link-only one, in awake order under a
	// channel that may rewrite observations.
	OnDeliver(r int64, to NodeID, out Outcome)
}

// Channel mediates the delivery pass, modeling channel adversity:
// packet loss, jamming, unreliable collision detection, radio faults.
// Implementations must be deterministic given their construction — the
// engine consults the hooks in a fixed order, but robust models key
// their randomness on (round, node/link) so even that order is
// irrelevant. A Channel may carry mutable per-run state (jammer
// budgets, fault clocks), so instances must not be shared across
// networks or reused across runs. See internal/channel for the stock
// models; a nil Config.Channel is the ideal channel of Section 1.1.
type Channel interface {
	// RoundStart fires once per executed round, after actions are
	// collected and source suppression is applied, with the round's
	// SURVIVING transmitter set — every transmitter for which no
	// model's SuppressTransmit returned true (aliases engine storage:
	// copy to retain). Adaptive adversaries snoop the traffic here;
	// handing them the post-suppression set means a budgeted jammer
	// stacked after a fault model cannot spend budget on rounds whose
	// only transmitters are fault-dead radios.
	RoundStart(r int64, transmitters []NodeID)
	// SuppressTransmit reports whether v's transmission this round is
	// erased at the source (crashed radio, not-yet-woken node, jammed
	// transmitter). It is the first hook consulted each round — before
	// RoundStart — so the snoopable transmitter set can exclude
	// suppressed sources. A suppressed transmission reaches no neighbor
	// and increments Stats.Dropped once.
	SuppressTransmit(r int64, v NodeID) bool
	// DropLink reports whether the packet from from is erased on the
	// link to to this round (per-link, per-round loss). Each erased
	// link delivery increments Stats.Dropped.
	DropLink(r int64, from, to NodeID) bool
	// Observe finalizes what listener to perceives. count is the number
	// of channel-surviving transmitting neighbors; (out, ok) is the
	// tentative ideal observation for that count (ok=false means
	// silence). The returned pair replaces it; returning ok=false
	// silences the listener. A returned collision symbol on a network
	// without collision detection is sanitized to silence by the engine
	// (⊤ is unobservable without CD), so models need not know the CD
	// setting.
	Observe(r int64, to NodeID, count int, out Outcome, ok bool) (Outcome, bool)
}

// LinkOnlyChannel is the optional capability of a Channel that acts
// only through SuppressTransmit, RoundStart and DropLink: when LinkOnly
// reports true, Observe must return (out, ok) unchanged on every call.
// Both engines read the capability when the channel is installed (New,
// NewDense, Network.SetChannel) and then run such a channel on their
// ideal path — Network's first-touch resolve, Dense's resolve of the
// listeners it counted — with the link loss applied while counting,
// skipping the per-listener Observe sweep. Results are identical
// either way; only the cost differs.
type LinkOnlyChannel interface {
	Channel
	LinkOnly() bool
}

// IsLinkOnly reports whether ch promises an identity Observe. A nil
// channel, or one without the method, is not link-only.
func IsLinkOnly(ch Channel) bool {
	lo, ok := ch.(LinkOnlyChannel)
	return ok && lo.LinkOnly()
}

// ResettableChannel is the optional reuse extension of Channel: models
// carrying per-run mutable state (jammer budgets) implement Reset to
// rewind it, so one instance can serve many runs. Harness runners call
// ResetChannel at the start of every fresh seeded run; the adaptive
// retry layer deliberately does NOT reset between the epochs of one
// run, so an adversary's budget spans the whole retried broadcast.
// Stateless models (erasure, noisy CD, fault tables) need not
// implement it.
type ResettableChannel interface {
	Channel
	Reset()
}

// ResetChannel rewinds ch's per-run state when it is resettable and
// reports whether it was. A nil channel is a no-op.
func ResetChannel(ch Channel) bool {
	if rc, ok := ch.(ResettableChannel); ok {
		rc.Reset()
		return true
	}
	return false
}

// Config configures a Network.
type Config struct {
	// CollisionDetection enables delivery of the ⊤ symbol.
	CollisionDetection bool
	// MaxPacketBits, when positive, makes the engine panic on any
	// packet whose Bits() exceeds it — enforcing the B = Θ(log n)
	// packet-size model.
	MaxPacketBits int
	// Tracer, when non-nil, observes every round.
	Tracer Tracer
	// Channel, when non-nil, mediates every delivery (loss, jamming,
	// unreliable CD, radio faults). nil is the ideal channel. Both
	// engines keep a nil or link-only channel (see LinkOnlyChannel) on
	// their ideal path; any other channel adds the per-round sweep of
	// every awake listener through Observe.
	Channel Channel
	// Workers, when greater than one, partitions the dense engine's
	// per-round passes across that many goroutines. Results are
	// byte-identical at any worker count (see Dense). Only NewDense
	// consults it; Network is always sequential.
	//
	// When a Channel is combined with Workers > 1, its DropLink and
	// Observe hooks are called concurrently from multiple goroutines
	// (RoundStart and SuppressTransmit stay sequential). The stock
	// models satisfy this: Erasure, NoisyCD, and Faults are pure keyed
	// functions of (round, node/link), and Jammer mutates state only in
	// RoundStart. A custom model that mutates state in DropLink or
	// Observe must be used with Workers <= 1.
	Workers int
	// Observer, when non-nil, receives a cumulative-counter snapshot
	// every ObserverStride-th executed round, synchronously after the
	// round's deliveries. nil is never consulted and preserves the
	// zero-allocation hot path byte-for-byte (the same guard discipline
	// as a nil Channel). Observers see counters only; they must not
	// block and cannot perturb the run.
	Observer obs.RoundObserver
	// ObserverStride is the round interval between Observer callbacks
	// (round r is reported when r is a multiple of the stride); values
	// below 1 mean every executed round. Ignored when Observer is nil.
	ObserverStride int64
}

// Stats aggregates engine counters for a run.
type Stats struct {
	Rounds        int64 // rounds elapsed (including slept/idle rounds)
	ActiveRounds  int64 // rounds in which at least one node was awake
	Transmissions int64 // individual node transmissions
	Deliveries    int64 // successful single-transmitter receptions
	CollisionObs  int64 // ⊤ observations delivered (CD only)
	Polls         int64 // Act calls (wall-clock work proxy)
	Dropped       int64 // transmissions/link deliveries erased by the channel
	Jammed        int64 // observations whose class the channel changed
	BusyRounds    int64 // executed rounds with >= 1 channel-surviving transmitter
	SilentRounds  int64 // executed rounds with none (idle fast-forwarded rounds count in neither)
	MaxFrontier   int64 // peak per-round surviving-transmitter count
}

// Utilization is the fraction of executed rounds that carried traffic
// (BusyRounds over executed rounds); 0 when nothing executed.
func (s Stats) Utilization() float64 {
	executed := s.BusyRounds + s.SilentRounds
	if executed == 0 {
		return 0
	}
	return float64(s.BusyRounds) / float64(executed)
}

// Add accumulates other's counters into s. Multi-run aggregators (the
// adaptive retry layer sums per-epoch engine stats) fold through here,
// next to the field list, so a future counter cannot be silently
// dropped from aggregates.
func (s *Stats) Add(other Stats) {
	s.Rounds += other.Rounds
	s.ActiveRounds += other.ActiveRounds
	s.Transmissions += other.Transmissions
	s.Deliveries += other.Deliveries
	s.CollisionObs += other.CollisionObs
	s.Polls += other.Polls
	s.Dropped += other.Dropped
	s.Jammed += other.Jammed
	s.BusyRounds += other.BusyRounds
	s.SilentRounds += other.SilentRounds
	// MaxFrontier is a high-water mark, not a flow: the aggregate peak
	// is the max of the per-run peaks.
	if other.MaxFrontier > s.MaxFrontier {
		s.MaxFrontier = other.MaxFrontier
	}
}

// snapshot renders the counters as an observer snapshot for round r.
func (s *Stats) snapshot(r int64) obs.RoundSnapshot {
	return obs.RoundSnapshot{
		Round:         r,
		Transmissions: s.Transmissions,
		Deliveries:    s.Deliveries,
		CollisionObs:  s.CollisionObs,
		Dropped:       s.Dropped,
		Jammed:        s.Jammed,
		BusyRounds:    s.BusyRounds,
		SilentRounds:  s.SilentRounds,
		MaxFrontier:   s.MaxFrontier,
	}
}

// Network is a synchronous radio network simulation over a fixed graph.
type Network struct {
	core
	proto []Protocol
	wake  wakeQueue

	// Per-round scratch, stamped by round number to avoid clearing.
	listenStamp []int64 // node listened (awake, no transmit) in round stamp
	hearCount   []int32
	hearStamp   []int64
	hearFrom    []NodeID
	hearPkt     []Packet
	touched     []NodeID
	transmitter []NodeID
}

// New creates a network over g. All nodes start with a nil protocol;
// nil-protocol nodes are permanently silent and asleep.
func New(g *graph.Graph, cfg Config) *Network {
	n := g.N()
	nw := &Network{
		core:        newCore(g, cfg),
		proto:       make([]Protocol, n),
		listenStamp: make([]int64, n),
		hearCount:   make([]int32, n),
		hearStamp:   make([]int64, n),
		hearFrom:    make([]NodeID, n),
		hearPkt:     make([]Packet, n),
	}
	for i := range nw.listenStamp {
		nw.listenStamp[i] = -1
		nw.hearStamp[i] = -1
	}
	return nw
}

// SetProtocol installs p on node v and schedules it to wake at the
// current round. Each node's protocol may be installed only once per
// network (reinstalling would double-schedule the node).
func (nw *Network) SetProtocol(v NodeID, p Protocol) {
	if p == nil {
		panic("radio: SetProtocol with nil protocol")
	}
	if nw.proto[v] != nil {
		panic(fmt.Sprintf("radio: node %d already has a protocol", v))
	}
	nw.proto[v] = p
	nw.wake.push(nw.round, v)
}

// Protocol returns the protocol installed on v (nil if none).
func (nw *Network) Protocol(v NodeID) Protocol { return nw.proto[v] }

// Reset rewinds the network to its post-New state — round counter,
// statistics, wake queue, and the per-round stamps — without
// reallocating the CSR aliases, scratch arrays, or ring buckets, so a
// harness can execute many seeds on one graph with zero per-seed
// engine construction. Installed protocols are cleared (their objects
// are owned by the caller, which resets and re-installs them via
// SetProtocol); the configured channel is cleared too, since channel
// models carry per-run mutable state — install a fresh or reset one
// with SetChannel.
func (nw *Network) Reset() {
	nw.round = 0
	nw.stats = Stats{}
	nw.wake.reset()
	nw.setChannel(nil)
	for i := range nw.proto {
		nw.proto[i] = nil
		nw.listenStamp[i] = -1
		nw.hearStamp[i] = -1
		nw.hearPkt[i] = nil // release packet references for the GC
	}
	nw.touched = nw.touched[:0]
	nw.transmitter = nw.transmitter[:0]
	nw.keptTx = nw.keptTx[:0]
}

// SetChannel installs (or clears) the channel adversity model for the
// next run. Channel models carry per-run mutable state, so a reused
// network needs a fresh instance after every Reset.
func (nw *Network) SetChannel(ch Channel) { nw.setChannel(ch) }

// Step executes exactly one round. If every node sleeps beyond the
// current round the engine still advances one round (the round is
// idle); use Run/RunUntil for fast-forwarding.
func (nw *Network) Step() {
	r := nw.round
	nw.transmitter = nw.transmitter[:0]
	awake := nw.wake.popAt(r)
	if len(awake) > 0 {
		nw.stats.ActiveRounds++
	}
	for _, v := range awake {
		p := nw.proto[v]
		if p == nil {
			continue
		}
		nw.stats.Polls++
		act := p.Act(r)
		next := r + 1
		if act.SleepUntil > next {
			next = act.SleepUntil
		}
		if act.Transmit {
			if act.Packet == nil {
				panic(fmt.Sprintf("radio: node %d transmits nil packet in round %d", v, r))
			}
			if nw.cfg.MaxPacketBits > 0 && act.Packet.Bits() > nw.cfg.MaxPacketBits {
				panic(fmt.Sprintf("radio: node %d packet %T of %d bits exceeds budget %d",
					v, act.Packet, act.Packet.Bits(), nw.cfg.MaxPacketBits))
			}
			nw.transmitter = append(nw.transmitter, v)
			nw.hearPkt[v] = act.Packet // reuse as scratch for own packet
			nw.stats.Transmissions++
		} else {
			nw.listenStamp[v] = r
		}
		nw.wake.push(next, v)
	}
	if nw.cfg.Tracer != nil {
		nw.cfg.Tracer.OnRound(r, nw.transmitter)
	}
	// Delivery: count the surviving transmitting neighbors of each
	// awake listener, iterating the CSR arrays directly.
	tx := nw.survivors(r, nw.transmitter)
	ch := nw.cfg.Channel
	nw.touched = nw.touched[:0]
	for _, t := range tx {
		pkt := nw.hearPkt[t]
		for _, u := range nw.edges[nw.offsets[t]:nw.offsets[t+1]] {
			if nw.listenStamp[u] != r {
				continue // transmitting, sleeping, or protocol-less
			}
			if ch != nil && ch.DropLink(r, t, u) {
				nw.stats.Dropped++
				continue
			}
			if nw.hearStamp[u] != r {
				nw.hearStamp[u] = r
				nw.hearCount[u] = 0
				nw.touched = append(nw.touched, u)
			}
			nw.hearCount[u]++
			if nw.hearCount[u] == 1 {
				nw.hearFrom[u] = t
				nw.hearPkt[u] = pkt
			}
		}
	}
	if nw.sweep {
		nw.sweepListeners(r, awake)
	} else {
		nw.resolve(r)
	}
	nw.closeRound(r, len(tx))
}

// resolve finalizes the listeners a surviving transmission reached, in
// first-touch order: a unique sender is a packet, two or more are ⊤
// under CD and silence without it.
func (nw *Network) resolve(r int64) {
	for _, u := range nw.touched {
		var out Outcome
		switch {
		case nw.hearCount[u] == 1:
			out = Outcome{Packet: nw.hearPkt[u], From: nw.hearFrom[u]}
			nw.stats.Deliveries++
		case nw.cfg.CollisionDetection:
			out = Outcome{Collision: true}
			nw.stats.CollisionObs++
		default:
			continue // collision without CD: indistinguishable from silence
		}
		nw.deliver(r, u, out)
	}
}

// sweepListeners finalizes every awake listener — not only neighbors
// of transmitters — through the channel's Observe, so the channel can
// inject observations (spurious ⊤, jamming) into silent receptions.
// Listener order follows the awake slice, which is deterministic;
// robust models additionally key their draws by (round, node/link) so
// ordering never matters.
func (nw *Network) sweepListeners(r int64, awake []NodeID) {
	for _, u := range awake {
		if nw.listenStamp[u] != r {
			continue
		}
		count := 0
		if nw.hearStamp[u] == r {
			count = int(nw.hearCount[u])
		}
		out, ok, jammed := nw.rewrite(r, u, count, nw.hearFrom[u], nw.hearPkt[u])
		if jammed {
			nw.stats.Jammed++
		}
		if !ok {
			continue
		}
		if out.Collision {
			nw.stats.CollisionObs++
		} else {
			nw.stats.Deliveries++
		}
		nw.deliver(r, u, out)
	}
}

func (nw *Network) deliver(r int64, u NodeID, out Outcome) {
	nw.proto[u].Observe(r, out)
	if nw.cfg.Tracer != nil {
		nw.cfg.Tracer.OnDeliver(r, u, out)
	}
}

// Run executes rounds until the round counter reaches limit,
// fast-forwarding through globally idle windows. It returns early if
// no node will ever wake again.
func (nw *Network) Run(limit int64) { nw.RunUntil(limit, never) }

// RunUntil executes rounds until pred returns true (checked after
// every executed round) or the round counter reaches limit,
// fast-forwarding through globally idle windows. It reports the round
// count at stop and whether pred was satisfied.
func (nw *Network) RunUntil(limit int64, pred func() bool) (int64, bool) {
	if pred() {
		return nw.round, true
	}
	for nw.round < limit {
		next, ok := nw.wake.nextWake()
		if !ok || next >= limit {
			// No node acts again before the limit; account the idle tail.
			nw.round = limit
			nw.stats.Rounds = nw.round
			return nw.round, pred()
		}
		if next > nw.round {
			nw.round = next // fast-forward: rounds in between are idle
		}
		nw.Step()
		if pred() {
			return nw.round, true
		}
	}
	return nw.round, pred()
}

// wakeWindow is the span of the near-future ring buckets; must be a
// power of two. Wakes within wakeWindow rounds of the queue front are
// stored in reusable ring slices (the overwhelmingly common case: a
// node that acted in round r wakes at r+1), so the steady-state round
// loop performs no map or heap operations and no allocations. Only
// long sleeps (SleepUntil beyond the window) touch the far map.
const wakeWindow = 64

// wakeQueue schedules node wake-ups by round. Rounds below base have
// already been popped; rounds in [base, base+wakeWindow) live in the
// ring bucket round%wakeWindow; later rounds live in the far map,
// fronted by a manual min-heap of distinct round keys (no interface
// boxing, unlike container/heap).
type wakeQueue struct {
	base    int64
	ringLen int
	ring    [wakeWindow][]NodeID
	far     map[int64][]NodeID
	farKeys []int64
	spare   [][]NodeID // drained far buckets, recycled by push
	out     []NodeID   // reused popAt result buffer
}

// reset rewinds the queue to empty while keeping every allocation:
// ring buckets, the far map (emptied, buckets recycled via spare), the
// key heap, and the pop buffer all retain their capacity for the next
// run.
func (q *wakeQueue) reset() {
	for i := range q.ring {
		q.ring[i] = q.ring[i][:0]
	}
	q.ringLen = 0
	q.base = 0
	for k, lst := range q.far {
		q.spare = append(q.spare, lst[:0])
		delete(q.far, k)
	}
	q.farKeys = q.farKeys[:0]
}

func (q *wakeQueue) push(round int64, v NodeID) {
	if round < q.base {
		// A protocol installed mid-run on the already-executed current
		// round: it wakes at the queue front (the next executed round),
		// matching the historical bucket-map behavior.
		round = q.base
	}
	if round < q.base+wakeWindow {
		i := round & (wakeWindow - 1)
		q.ring[i] = append(q.ring[i], v)
		q.ringLen++
		return
	}
	if q.far == nil {
		q.far = make(map[int64][]NodeID)
	}
	lst, ok := q.far[round]
	if !ok {
		q.farKeys = heapPushInt64(q.farKeys, round)
		if n := len(q.spare); n > 0 {
			lst = q.spare[n-1]
			q.spare = q.spare[:n-1]
		}
	}
	q.far[round] = append(lst, v)
}

// popAt removes and returns all nodes scheduled to wake at or before r.
// The returned slice is reused by the next popAt call. r must not
// decrease across calls.
func (q *wakeQueue) popAt(r int64) []NodeID {
	out := q.out[:0]
	for q.base <= r && q.ringLen > 0 {
		i := q.base & (wakeWindow - 1)
		if b := q.ring[i]; len(b) > 0 {
			out = append(out, b...)
			q.ringLen -= len(b)
			q.ring[i] = b[:0]
		}
		q.base++
	}
	if q.base <= r {
		q.base = r + 1 // ring empty: skip the idle gap in O(1)
	}
	for len(q.farKeys) > 0 && q.farKeys[0] <= r {
		var key int64
		q.farKeys, key = heapPopInt64(q.farKeys)
		out = append(out, q.far[key]...)
		q.spare = append(q.spare, q.far[key][:0])
		delete(q.far, key)
	}
	q.out = out
	return out
}

// nextWake returns the earliest scheduled wake round.
func (q *wakeQueue) nextWake() (int64, bool) {
	// Fast path: the front bucket is occupied — the overwhelmingly
	// common steady-state case (a node that acted in round r wakes at
	// r+1, which is the front once popAt(r) advanced base). Far keys
	// are always >= base (popAt drains every key <= r before base can
	// pass it), so the front bucket is the global minimum and the
	// 64-slot ring scan below is skipped entirely.
	if len(q.ring[q.base&(wakeWindow-1)]) > 0 {
		return q.base, true
	}
	if q.ringLen > 0 {
		for d := int64(1); d < wakeWindow; d++ {
			if len(q.ring[(q.base+d)&(wakeWindow-1)]) > 0 {
				ringMin := q.base + d
				if len(q.farKeys) > 0 && q.farKeys[0] < ringMin {
					return q.farKeys[0], true
				}
				return ringMin, true
			}
		}
	}
	if len(q.farKeys) > 0 {
		return q.farKeys[0], true
	}
	return 0, false
}

// heapPushInt64 appends x to the min-heap h and restores heap order.
func heapPushInt64(h []int64, x int64) []int64 {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// heapPopInt64 removes and returns the minimum of the min-heap h.
func heapPopInt64(h []int64) ([]int64, int64) {
	min := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l] < h[small] {
			small = l
		}
		if r < n && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, min
}
