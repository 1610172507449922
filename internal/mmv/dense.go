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
//   - Slow-slot coin flips are keyed draws Mix3(key, node, round)
//     instead of per-node RNG streams, so AppendTransmitters needs no
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
	g       *graph.Graph
	f       *gst.Flat
	s       Schedule
	key     uint64
	noising bool
	src     graph.NodeID

	informed bitvec.Vec // has the message
	newly    bitvec.Vec // received this round; promoted in EndRound
	armed    bitvec.Vec // relay bit: parent's fast wave buffered
	listen   bitvec.Vec // uninformed ∪ fastListen (maintained incrementally)
	frontier bitvec.Vec // informed members with >= 1 uninformed neighbor
	uninf    bitvec.Vec // uninformed members (noising slow candidates)
	noiseTx  bitvec.Vec // this round's transmitters that send noise, stamped at collect

	// fastListen marks interior stretch nodes with a same-rank child —
	// the nodes whose relay bit matters; they listen forever (static).
	fastListen bitvec.Vec
	// slowBucket partitions members by Vdist mod 3: the odd round t
	// is a slow slot of exactly the bucket ((t-1)/2) mod 3.
	slowBucket [3]bitvec.Vec
	// fastList[res] lists members with a same-rank child whose fast
	// slot 2(l+3r) mod M equals res, ascending (odd residues empty).
	fastList [][]graph.NodeID
	// armSlot is the residue of the parent's fast slot for interior
	// stretch nodes (the only nodes that buffer a relay), else -1.
	armSlot []int32

	uninformedDeg []int32 // per-node count of uninformed neighbors
	recvRound     []int64 // round of first reception (-1 for the source)
	informedCount int

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
		g:             g,
		f:             f,
		s:             s,
		key:           DenseKey(seed),
		noising:       noising,
		src:           source,
		informed:      bitvec.New(n),
		newly:         bitvec.New(n),
		armed:         bitvec.New(n),
		listen:        bitvec.New(n),
		frontier:      bitvec.New(n),
		uninf:         bitvec.New(n),
		noiseTx:       bitvec.New(n),
		fastListen:    bitvec.New(n),
		fastList:      make([][]graph.NodeID, s.M),
		armSlot:       make([]int32, n),
		uninformedDeg: make([]int32, n),
		recvRound:     make([]int64, n),
		pkt:           decay.Message{Data: int64(source)},
		noise:         radio.NoisePacket{},
	}
	for i := range d.slowBucket {
		d.slowBucket[i] = bitvec.New(n)
	}
	d.listen.Ones()
	for v := 0; v < n; v++ {
		d.uninformedDeg[v] = int32(g.Degree(graph.NodeID(v)))
		d.recvRound[v] = -1
		d.armSlot[v] = -1
		if !f.Member(graph.NodeID(v)) {
			continue
		}
		d.uninf.Set(v)
		d.slowBucket[int(f.Vdist[v])%3].Set(v)
		if f.SameRankChild[v] {
			res := (2 * (int64(f.Level[v]) + 3*int64(f.Rank[v]))) % s.M
			d.fastList[res] = append(d.fastList[res], graph.NodeID(v))
			if !f.StretchStart[v] {
				d.fastListen.Set(v)
			}
		}
		if !f.StretchStart[v] {
			// Interior stretch node: buffers the parent's wave, sent at
			// the parent's fast slot 2((l-1)+3r) mod M.
			d.armSlot[v] = int32((2 * (int64(f.Level[v]) - 1 + 3*int64(f.Rank[v]))) % s.M)
		}
	}
	if n > 0 {
		d.inform(source, -1)
	}
	return d
}

// inform flips v to informed (received in round r; -1 for the source),
// maintaining the listen set, the noising candidates, the neighbors'
// uninformed-degree counts, and the frontier on both sides.
func (d *Dense) inform(v graph.NodeID, r int64) {
	d.informed.Set(int(v))
	d.uninf.Clear(int(v))
	if !d.fastListen.Get(int(v)) {
		d.listen.Clear(int(v))
	}
	d.recvRound[v] = r
	d.informedCount++
	for _, u := range d.g.Neighbors(v) {
		d.uninformedDeg[u]--
		if d.uninformedDeg[u] == 0 {
			d.frontier.Clear(int(u)) // no-op for uninformed u
		}
	}
	if d.uninformedDeg[v] > 0 && d.f.Member(v) {
		d.frontier.Set(int(v))
	}
}

// fastContent reports whether fast transmitter v holds content this
// round: stretch starts send fresh content, interior nodes relay.
func (d *Dense) fastContent(v graph.NodeID) bool {
	if d.f.StretchStart[v] {
		return d.informed.Get(int(v))
	}
	return d.armed.Get(int(v))
}

// AppendTransmitters implements radio.DenseProtocol. Even rounds walk
// the round's fast residue class; odd rounds walk the round's slow
// bucket masked by the frontier (plus, when noising, the uninformed
// members). The per-transmitter payload kind (content vs noise) is
// stamped into noiseTx here — at collect time — so Packet reads a
// round-stable bit even while deliveries arm relays concurrently.
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
	bw := d.slowBucket[((r-1)/2)%3].Words()
	fw := d.frontier.Words()
	var uw []uint64
	if d.noising {
		uw = d.uninf.Words()
	}
	for wi := int(lo) >> 6; wi<<6 < int(hi); wi++ {
		w := bw[wi] & fw[wi]
		if uw != nil {
			w = bw[wi] & (fw[wi] | uw[wi])
		}
		for w != 0 {
			v := graph.NodeID(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			base := 1 + 2*int64(d.f.Vdist[v])
			if r < base {
				continue
			}
			if exp := ((r - base) / 6) % int64(d.s.L); exp > 0 &&
				rng.Mix3(d.key, uint64(v), uint64(r)) >= uint64(1)<<(64-uint(exp)) {
				continue
			}
			if d.informed.Get(int(v)) {
				d.noiseTx.Clear(int(v))
			} else {
				d.noiseTx.Set(int(v)) // noising: jam the won slot
			}
			dst = append(dst, v)
		}
	}
	return dst
}

// ListenWords implements radio.DenseProtocol: every uninformed node
// listens (to get the message), and every interior stretch node with a
// same-rank child listens forever (to keep the relay wave alive).
func (d *Dense) ListenWords(int64) []uint64 { return d.listen.Words() }

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
	if !d.informed.Get(int(v)) {
		d.newly.Set(int(v))
	}
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
	words := d.newly.Words()
	for wi, w := range words {
		for w != 0 {
			v := graph.NodeID(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			d.inform(v, r)
		}
		words[wi] = 0
	}
}

// Done reports whether every node is informed.
func (d *Dense) Done() bool { return d.informedCount == d.g.N() }

// InformedCount returns the number of informed nodes.
func (d *Dense) InformedCount() int { return d.informedCount }

// Informed reports whether v has the message.
func (d *Dense) Informed(v graph.NodeID) bool { return d.informed.Get(int(v)) }

// RecvRound returns the round v first received the message (-1 for
// the source or a still-uninformed node).
func (d *Dense) RecvRound(v graph.NodeID) int64 { return d.recvRound[v] }
