package mmv

// Dense is the structure-of-arrays GST broadcast for the radio.Dense
// engine: the single-message MMV schedule (fast/slow slots over a
// gathering spanning tree) with every node's state held in bitsets and
// flat arrays — the structured counterpart of decay.Dense (plain Decay
// and the CR schedule).
//
// Differences from the per-node Protocol (same schedule, same delivery
// semantics, different randomness plumbing):
//
//   - Slow-slot coin flips are keyed draws Mix(key, node, round)
//     instead of per-node RNG streams, drawn through an rng.Prefix
//     that absorbs the key once, so AppendTransmitters needs no
//     mutable state and partitions can draw concurrently. Runs are NOT
//     byte-comparable with Protocol runs driven by rand.Rand — the
//     determinism claim is Dense(Workers=a) == Dense(Workers=b) at any
//     a, b, plus byte-identity with a keyed sparse twin replaying the
//     same draws (see the package tests).
//   - Fast slots are fully deterministic: the residue classes
//     2(l+3r) mod M are precomputed into per-residue ascending node
//     lists, so a fast round costs O(|class| log) instead of O(n).
//   - Slow-slot transmitters are frontier-pruned: an informed node
//     with no uninformed neighbor transmits into an audience of
//     already-informed listeners, and on odd rounds an informed
//     listener's observation is a no-op (relay arming is confined to
//     even rounds — fast residues are even, M is even), so dropping
//     the transmission provably cannot change any node's state. Fast
//     slots are never pruned: the relay wave must keep propagating
//     through informed stretches. The argument needs the channel to be
//     round-local and link-keyed (ideal, erasure); stateful channels
//     (jammer budgets) may observe the pruned transmitter set, which
//     keeps Workers-invariance but voids sparse-twin byte-identity.
//   - The relay buffer of the sparse protocol (one packet per node)
//     collapses to one bit per node: single-message content means a
//     relay either holds the message or nothing.

import (
	"math/bits"

	"radiocast/internal/bitvec"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// DenseKey derives the keyed-draw seed for the dense GST broadcast's
// slow slots; exported so twin tests can replay the exact coins.
func DenseKey(seed uint64) uint64 { return rng.Mix(seed, 0x67) }

// Dense implements radio.DenseProtocol for the single-message MMV
// schedule over a flattened GST.
type Dense struct {
	// Spread keeps the informed set, the frontier and the listeners
	// (uninformed ∪ fastListen); Done, InformedCount, ListenWords.
	radio.Spread

	f       *gst.Flat
	s       Schedule
	coin    rng.Prefix // slow-slot coins Mix(DenseKey(seed), node, round)
	noising bool

	armed   bitvec.Vec // relay bit: parent's fast wave buffered
	noiseTx bitvec.Vec // this round's transmitters that send noise, stamped at collect

	// slowBucket partitions members by Vdist mod 3: the odd round t
	// is a slow slot of exactly the bucket ((t-1)/2) mod 3.
	slowBucket [3]bitvec.Vec
	// fastList[res] lists members with a same-rank child whose fast
	// slot 2(l+3r) mod M equals res, ascending (odd residues empty).
	fastList [][]graph.NodeID
	// armSlot is the residue of the parent's fast slot for interior
	// stretch nodes (the only nodes that buffer a relay), else -1.
	armSlot []int32

	pkt   radio.Packet // the message, boxed once
	noise radio.Packet // NoisePacket, boxed once
}

var _ radio.DenseProtocol = (*Dense)(nil)

// NewDense creates the SoA GST broadcast on g over the flattened tree
// f (normally gst.Flatten(gst.Construct(g, source))), with slow-slot
// coins keyed on seed. noising makes scheduled nodes without content
// jam their slots — the MMV adversary of Definition 3.1.
func NewDense(g *graph.Graph, f *gst.Flat, s Schedule, seed uint64, source graph.NodeID, noising bool) *Dense {
	n := g.N()
	d := &Dense{
		f:        f,
		s:        s,
		coin:     rng.NewPrefix(DenseKey(seed)),
		noising:  noising,
		armed:    bitvec.New(n),
		noiseTx:  bitvec.New(n),
		fastList: make([][]graph.NodeID, s.M),
		armSlot:  make([]int32, n),
		pkt:      decay.Message{Data: int64(source)},
		noise:    radio.NoisePacket{},
	}
	// fastListen marks interior stretch nodes with a same-rank child —
	// the nodes whose relay bit matters; they listen forever.
	fastListen := bitvec.New(n)
	for i := range d.slowBucket {
		d.slowBucket[i] = bitvec.New(n)
	}
	for v := 0; v < n; v++ {
		d.armSlot[v] = -1
		if !f.Member(graph.NodeID(v)) {
			continue
		}
		d.slowBucket[int(f.Vdist[v])%3].Set(v)
		if f.SameRankChild[v] {
			res := (2 * (int64(f.Level[v]) + 3*int64(f.Rank[v]))) % s.M
			d.fastList[res] = append(d.fastList[res], graph.NodeID(v))
			if !f.StretchStart[v] {
				fastListen.Set(v)
			}
		}
		if !f.StretchStart[v] {
			// Interior stretch node: buffers the parent's wave, sent at
			// the parent's fast slot 2((l-1)+3r) mod M.
			d.armSlot[v] = int32((2 * (int64(f.Level[v]) - 1 + 3*int64(f.Rank[v]))) % s.M)
		}
	}
	d.Spread = radio.NewSpread(g, source, fastListen)
	return d
}

// fastContent reports whether fast transmitter v holds content this
// round: stretch starts send fresh content, interior nodes relay.
func (d *Dense) fastContent(v graph.NodeID) bool {
	if d.f.StretchStart[v] {
		return d.Informed(v)
	}
	return d.armed.Get(int(v))
}

// AppendTransmitters implements radio.DenseProtocol. Even rounds walk
// the round's fast residue class; odd rounds walk the round's slow
// bucket masked by the frontier (plus, when noising, the uninformed
// nodes; the bucket holds members only, so non-members in the frontier
// or the uninformed set never transmit). A quiet slow slot visits only
// the non-zero frontier words; a noising one reads every word. The
// per-transmitter payload kind (content vs noise) is stamped into
// noiseTx here — at collect time — so Packet reads a round-stable bit
// even while deliveries arm relays concurrently.
func (d *Dense) AppendTransmitters(r int64, lo, hi graph.NodeID, dst []radio.NodeID) []radio.NodeID {
	if r%2 == 0 {
		lst := d.fastList[r%d.s.M]
		i, j := 0, len(lst)
		for i < j {
			h := int(uint(i+j) >> 1)
			if lst[h] < lo {
				i = h + 1
			} else {
				j = h
			}
		}
		for ; i < len(lst) && lst[i] < hi; i++ {
			v := lst[i]
			switch {
			case d.fastContent(v):
				d.noiseTx.Clear(int(v))
			case d.noising:
				d.noiseTx.Set(int(v))
			default:
				continue
			}
			dst = append(dst, v)
		}
		return dst
	}
	// Slow round r = 1 + 2q is node v's slot when q ≡ Vdist[v] (mod 3)
	// and q >= Vdist[v]; with base = 1 + 2·Vdist[v] its exponent
	// ((r-base)/6) mod L is ((q-Vdist[v])/3) mod L.
	q := (r - 1) / 2
	bw := d.slowBucket[q%3].Words()
	fw := d.FrontierWords()
	iw := d.InformedWords()
	end := (int(hi) + 63) >> 6
	for wi := int(lo) >> 6; wi < end; wi++ {
		var w uint64
		if d.noising {
			w = bw[wi] & (fw[wi] | ^iw[wi])
		} else {
			if wi = d.NextFrontierWord(wi, end); wi == end {
				break
			}
			w = bw[wi] & fw[wi]
		}
		for w != 0 {
			v := graph.NodeID(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			vd := int64(d.f.Vdist[v])
			if q < vd {
				continue
			}
			if exp := (uint64(q-vd) / 3) % uint64(d.s.L); exp > 0 &&
				d.coin.Mix2(uint64(v), uint64(r)) >= uint64(1)<<(64-uint(exp)) {
				continue
			}
			if d.Informed(v) {
				d.noiseTx.Clear(int(v))
			} else {
				d.noiseTx.Set(int(v)) // noising: jam the won slot
			}
			dst = append(dst, v)
		}
	}
	return dst
}

// Packet implements radio.DenseProtocol.
func (d *Dense) Packet(_ int64, v graph.NodeID) radio.Packet {
	if d.noiseTx.Get(int(v)) {
		return d.noise
	}
	return d.pkt
}

// Deliver implements radio.DenseProtocol. Both effects — marking the
// newly set and arming the relay bit — are v-local bitset writes, and
// the engine calls Deliver from v's owner partition, so same-word
// writes never race.
func (d *Dense) Deliver(r int64, v graph.NodeID, out radio.Outcome) {
	if out.Packet == nil {
		return // ⊤: the schedule ignores collisions
	}
	if _, ok := out.Packet.(decay.Message); !ok {
		return // channel noise / jamming
	}
	d.Hear(v)
	// Buffer the parent's fast wave for relaying two rounds later.
	if s := d.armSlot[v]; s >= 0 && int64(s) == r%d.s.M && out.From == d.f.Parent[v] {
		d.armed.Set(int(v))
	}
}

// EndRound implements radio.DenseProtocol: on a fast round, clear the
// relay bits of the round's interior transmitters (the sparse
// protocol's relay = nil on its own fast slot — one relay per received
// wave; a same-round arm cannot be erased, because a node's own
// residue and its parent's differ by 2 mod M); then promote this
// round's receivers in ascending node order.
func (d *Dense) EndRound(r int64) {
	if r%2 == 0 {
		for _, v := range d.fastList[r%d.s.M] {
			if !d.f.StretchStart[v] {
				d.armed.Clear(int(v))
			}
		}
	}
	d.Spread.EndRound(r)
}
