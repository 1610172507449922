package radio

import (
	"fmt"

	"radiocast/internal/graph"
	"radiocast/internal/obs"
)

// core is the round model both engines share: the graph and its CSR
// aliases, the configuration, the round counter and counters, and the
// channel rules around delivery — source suppression before
// RoundStart, the Observe rewrite, and the round close. Network and
// Dense embed it and differ only in how they collect transmitters and
// fan transmissions out to listeners.
type core struct {
	g       *graph.Graph
	cfg     Config
	offsets []int32 // CSR aliases, hoisted out of the delivery loop
	edges   []NodeID

	round  int64
	stats  Stats
	keptTx []NodeID // channel runs: transmitters surviving source suppression
	// sweep is set when the channel may rewrite observations (non-nil
	// and not link-only): such a round finalizes every listener
	// through Observe, not only the ones a transmission reached.
	sweep bool
}

func newCore(g *graph.Graph, cfg Config) core {
	offsets, edges := g.CSR()
	c := core{g: g, cfg: cfg, offsets: offsets, edges: edges}
	c.setChannel(cfg.Channel)
	return c
}

// setChannel installs ch and recomputes the sweep rule.
func (c *core) setChannel(ch Channel) {
	c.cfg.Channel = ch
	c.sweep = ch != nil && !IsLinkOnly(ch)
}

// Graph returns the underlying graph.
func (c *core) Graph() *graph.Graph { return c.g }

// Round returns the current round number (the next round to execute).
func (c *core) Round() int64 { return c.round }

// Stats returns a copy of the run counters.
func (c *core) Stats() Stats { return c.stats }

// SetObserver installs (or clears) the round observer and its stride.
// Unlike channels, observers carry no per-run simulation state, so —
// like the tracer — an installed observer survives Network.Reset; pass
// nil to detach and restore the observer-free hot path.
func (c *core) SetObserver(o obs.RoundObserver, stride int64) {
	c.cfg.Observer = o
	c.cfg.ObserverStride = stride
}

// Retopo swaps the topology in place: delivery immediately follows the
// new CSR while every other piece of engine state — round counter,
// wake queue or partitioning, stamps, scratch, installed protocols,
// the worker pool — is left untouched. The node count must be
// unchanged (len(offsets) == n+1), which is what keeps the per-node
// scratch valid; pass the arrays of graph.Graph.CSR on a same-n graph.
// Dense needs what that CSR guarantees: sorted rows (a pushed round
// with several partitions binary-searches them) and symmetry (a pulled
// round finds a listener's transmitters in the listener's own row).
//
// Retopo composes with Network.Reset in either order: Reset rewinds
// the run state without touching the CSR, Retopo swaps the CSR without
// touching the run state. Swapping mid-run is legal too (the mobility
// driver's case) — deliveries of round r simply fan out over the new
// adjacency. Dense protocols typically hold their own
// adjacency-derived state (degrees, trees), so on Dense a swap usually
// comes before the first step, with a protocol built on the new graph.
// Graph() keeps returning the construction-time graph; a caller that
// swaps topologies owns the mapping to graph objects.
func (c *core) Retopo(offsets []int32, edges []NodeID) {
	if len(offsets) != len(c.offsets) {
		panic(fmt.Sprintf("radio: Retopo with %d offsets, want %d (node count must be unchanged)",
			len(offsets), len(c.offsets)))
	}
	c.offsets = offsets
	c.edges = edges
}

// survivors applies the channel's source suppression to round r's
// transmitters tx, THEN fires RoundStart with the surviving set — an
// adaptive jammer snooping the traffic must not see (and spend budget
// on) transmissions a fault model already erased at the source — and
// returns that set. Both run sequentially in ascending list order.
// Without a channel every transmitter survives.
func (c *core) survivors(r int64, tx []NodeID) []NodeID {
	ch := c.cfg.Channel
	if ch == nil {
		return tx
	}
	kept := c.keptTx[:0]
	for _, t := range tx {
		if ch.SuppressTransmit(r, t) {
			c.stats.Dropped++
			continue
		}
		kept = append(kept, t)
	}
	c.keptTx = kept
	ch.RoundStart(r, kept)
	return kept
}

// rewrite finalizes listener u's observation on the sweep path. count
// is the number of surviving transmissions that reached u; pkt (from
// from) is read only when count is 1. The ideal observation for that
// count goes through the channel's Observe, then is sanitized: ⊤ is
// unobservable without CD, and a packet outcome without a payload is
// silence. It returns the final observation and whether its class
// differs from the ideal one (Stats.Jammed). rewrite touches no shared
// state, so Dense partitions call it concurrently.
func (c *core) rewrite(r int64, u NodeID, count int, from NodeID, pkt Packet) (out Outcome, ok, jammed bool) {
	var ideal Outcome
	idealOK := false
	switch {
	case count == 1:
		ideal, idealOK = Outcome{Packet: pkt, From: from}, true
	case count >= 2 && c.cfg.CollisionDetection:
		ideal, idealOK = Outcome{Collision: true}, true
	}
	out, ok = c.cfg.Channel.Observe(r, u, count, ideal, idealOK)
	if ok && out.Collision && !c.cfg.CollisionDetection {
		out, ok = Outcome{}, false // ⊤ is unobservable without CD
	}
	if ok && !out.Collision && out.Packet == nil {
		out, ok = Outcome{}, false // no payload and no symbol: silence
	}
	return out, ok, outcomeClass(out, ok) != outcomeClass(ideal, idealOK)
}

// outcomeClass buckets an observation for Jammed accounting:
// 0 silence, 1 packet, 2 collision symbol.
func outcomeClass(out Outcome, ok bool) int {
	switch {
	case !ok:
		return 0
	case out.Collision:
		return 2
	default:
		return 1
	}
}

// closeRound closes out executed round r: advances the round counter,
// folds the surviving-transmitter count surv (post suppression; every
// transmitter without a channel) into the busy/silent split and
// MaxFrontier, then fires the stride-gated observer.
func (c *core) closeRound(r int64, surv int) {
	c.round = r + 1
	c.stats.Rounds = c.round
	if surv > 0 {
		c.stats.BusyRounds++
		if int64(surv) > c.stats.MaxFrontier {
			c.stats.MaxFrontier = int64(surv)
		}
	} else {
		c.stats.SilentRounds++
	}
	if o := c.cfg.Observer; o != nil {
		stride := c.cfg.ObserverStride
		if stride < 1 || r%stride == 0 {
			o.OnRound(c.stats.snapshot(r))
		}
	}
}

// never is the RunUntil predicate of Run: stop only at the limit.
func never() bool { return false }
