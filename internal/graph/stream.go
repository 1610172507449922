package graph

// Streaming graph assembly: FromStream is the one code path that turns
// edges into a Graph, from the million-node sweeps down to a Builder
// (an EdgeStream over the edges recorded in it). An EdgeStream
// re-emits its edge sequence on demand, and FromStream materializes
// CSR directly — no edge list, no maps, no per-node allocation beyond
// the final arrays. Every stock streaming generator is source-monotone
// (see FromStream), so FromStream runs it once; any other stream is run
// twice.
//
// The streaming-CSR contract: for any EdgeStream, FromStream(s) is the
// canonical CSR (offsets, edges, name) of its emissions — duplicates
// dropped, self-loops dropped, rows sorted — byte-identical to a
// map-per-node assembly of the same emissions. Property tests enforce
// this against such an assembly on randomized small/medium streams,
// which is what validates the big-n path: the assembly is the same
// code at every n.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"radiocast/internal/rng"
)

// EdgeStream is a deterministic edge generator: Edges must emit the
// identical sequence on every invocation, because FromStream runs it a
// second time when the emissions are not source-monotone. Emitting a
// self-loop or a duplicate edge is allowed; both are dropped during
// assembly, exactly like Builder.AddEdge. FromStream makes the first
// run on a goroutine of its own and waits for it to end, so Edges must
// not depend on running on the caller's goroutine (a test stream must
// not call t.Fatal, for one).
type EdgeStream interface {
	// N returns the node count of the generated graph.
	N() int
	// Name returns the workload name carried by the built graph.
	Name() string
	// Edges calls emit for every (possibly duplicate) undirected edge.
	Edges(emit func(u, v NodeID))
}

// FromStream materializes a stream into CSR form. A node's row is its
// lower part (neighbours below it) followed by its upper part
// (neighbours above it), and the assembly only ever places upper parts:
//
//  1. One run of the stream, on a producer goroutine that hands its
//     emissions over in batches (countPipelined), counts each node's
//     lower and upper degree on the calling goroutine. While the
//     emissions stay source-monotone — the smaller endpoint
//     never decreases from one emission to the next — it also keeps the
//     larger endpoints in emission order, which is every upper part in
//     node order.
//  2. The nodes are split into two ranges, [0, h) and [h, n), that hold
//     about half the upper entries each, and the two halves are walked
//     at once (walkLow, walkHigh). Each copies its upper parts from what was kept
//     (or, if the order broke, from a second run of the stream made
//     before the walk), sorts each one unless it is already ascending,
//     and transposes them into the lower parts of their members. The
//     low half goes through its nodes in ascending order and fills each
//     lower part forward from its start; the high half goes through its
//     nodes in descending order and fills each lower part backward from
//     its end. The two meet exactly, and every lower part comes out
//     sorted with no sort, holding what a walk of all nodes in
//     ascending order would write.
//  3. Only when a row held a duplicate emission, forward compaction
//     drops the duplicates in one more pass.
//
// The high half runs on a goroutine of its own while the calling
// goroutine walks the low half, at every size.
//
// Peak memory is the final CSR plus two int32 per node and, on the
// one-run path, the kept endpoints: one int32 per edge, plus at most
// half as much again in unfilled chunk space. The batches' storage,
// which the walk reuses for the low half's cursors, comes on top: 32
// bytes per node, at least 4 KiB and at most 1 MiB, and never less than
// one int32 per node.
func FromStream(s EdgeStream) *Graph {
	n := s.N()
	if n < 0 {
		panic("graph: negative node count")
	}
	a := &assembly{n: n, offsets: make([]int32, n+1), low: make([]int32, n), monotone: true}
	a.countPipelined(s)
	a.full[a.k] = a.tail
	offsets, low := a.offsets, a.low
	total, h, skip := int32(0), n, 0
	for v, up := 0, 0; v < n; v++ {
		lower, upper := low[v], offsets[v+1]
		if h == n && 2*up >= a.m {
			h, skip = v, up
		}
		up += int(upper)
		offsets[v] = total
		low[v] = total + lower // where v's upper part starts
		total += lower + upper
	}
	offsets[n] = total
	edges, fwd := make([]NodeID, total), a.fwd
	a.edges = edges
	if !a.monotone {
		copy(fwd, low)
		s.Edges(func(u, v NodeID) {
			if u == v {
				return
			}
			if u > v {
				u, v = v, u
			}
			edges[fwd[u]] = v
			fwd[u]++
		})
	}
	// fwd[v] is the forward fill cursor of v's lower part.
	copy(fwd, offsets)
	high := make(chan bool, 1) // room for the answer: the high half never waits
	go func() { high <- a.walkHigh(h, skip) }()
	dup := a.walkLow(h)
	if <-high || dup {
		total = a.compact()
	}
	return &Graph{n: n, name: s.Name(), offsets: offsets, edges: edges[:total]}
}

// place copies the upper parts of the nodes in [lo, hi) from the kept
// chunks, skipping the first skip entries, when the stream was
// source-monotone, and sorts each one unless it is already ascending.
// It reports whether a part holds a duplicate.
func (a *assembly) place(lo, hi, skip int) (dup bool) {
	kept, src := a.full[:], []NodeID(nil)
	for ; a.monotone && skip > 0; kept = kept[1:] {
		if c := kept[0]; skip < len(c) {
			src, skip = c[skip:], 0
		} else {
			skip -= len(c)
		}
	}
	for u := lo; u < hi; u++ {
		upper := a.edges[a.low[u]:a.offsets[u+1]]
		if a.monotone {
			for dst := upper; len(dst) > 0; {
				if len(src) == 0 {
					src, kept = kept[0], kept[1:]
				}
				c := copy(dst, src)
				dst, src = dst[c:], src[c:]
			}
		}
		if sortRow(upper) {
			dup = true
		}
	}
	return dup
}

// walkLow walks the nodes below h: it places their upper parts and
// transposes them, in ascending node order, into the lower parts of
// their members from the front (fwd).
func (a *assembly) walkLow(h int) (dup bool) {
	dup = a.place(0, h, 0)
	edges, offsets, low, fwd := a.edges, a.offsets, a.low, a.fwd
	for u := 0; u < h; u++ {
		for _, v := range edges[low[u]:offsets[u+1]] {
			edges[fwd[v]] = NodeID(u)
			fwd[v]++
		}
	}
	return dup
}

// walkHigh walks the nodes from h on, whose upper parts start skip entries
// into the kept chunks: it places their upper parts and transposes
// them, in descending node order, into the lower parts of their members
// from the back, using low as the cursor. Only nodes below u move
// low[u], and they come after u, so low[u] still marks the start of
// u's upper part when u is transposed.
func (a *assembly) walkHigh(h, skip int) (dup bool) {
	dup = a.place(h, a.n, skip)
	edges, offsets, low := a.edges, a.offsets, a.low
	for u := a.n - 1; u >= h; u-- {
		for _, v := range edges[low[u]:offsets[u+1]] {
			low[v]--
			edges[low[v]] = NodeID(u)
		}
	}
	return dup
}

// compact drops the duplicates from every row by forward compaction
// and returns the entries left. The write cursor never passes a row's
// start (compaction only shrinks), so rows are read before they are
// overwritten.
func (a *assembly) compact() int32 {
	offsets, edges := a.offsets, a.edges
	w := int32(0)
	for u := 0; u < a.n; u++ {
		start, end := offsets[u], offsets[u+1]
		offsets[u] = w
		prev := NodeID(-1)
		for _, v := range edges[start:end] {
			if v != prev {
				prev = v
				edges[w] = v
				w++
			}
		}
	}
	offsets[a.n] = w
	return w
}

// sortRow sorts row unless it is already ascending and reports whether
// it holds a duplicate.
func sortRow(row []NodeID) (dup bool) {
	for i := 1; i < len(row); i++ {
		switch {
		case row[i-1] > row[i]:
			slices.Sort(row)
			for i := 1; i < len(row); i++ {
				if row[i-1] == row[i] {
					return true
				}
			}
			return false
		case row[i-1] == row[i]:
			dup = true
		}
	}
	return dup
}

// The first run of FromStream's stream is pipelined: a producer
// goroutine runs the stream and hands its emissions, two NodeIDs each
// and in emission order, to the counter on the calling goroutine in
// batches of batchSize(n) NodeIDs. batchCount batches circulate, so the
// producer is at most that many batches ahead of the counter, and a
// send of a filled batch never blocks.
const (
	batchLen   = 1 << 16 // the largest batch, in NodeIDs
	batchCount = 4
)

// batchSize is the length of the batches of a stream on n nodes, even
// so that a batch fills with whole emissions: two NodeIDs per node, at
// least 256 and at most batchLen, so a small build keeps its batches
// small.
func batchSize(n int) int { return min(batchLen, max(2*n, 256)) }

// stopped unwinds a producer whose counter has panicked.
type stopped struct{}

// pipe is one pipelined counting run: the two channels the batches
// circulate on, and the producer's state.
type pipe struct {
	full    chan []NodeID // filled batches, closed when the producer ends
	free    chan []NodeID // batches to fill, closed when the counter ends
	batch   []NodeID      // the batch the producer is filling
	failure any           // the stream's panic, read once full is closed
}

// countPipelined counts every emission of one run of s. A panic of
// s.Edges is raised again on the calling goroutine, and a panic of
// the counter stops the producer; either way the producer has finished
// when countPipelined returns or panics.
func (a *assembly) countPipelined(s EdgeStream) {
	p := &pipe{full: make(chan []NodeID, batchCount), free: make(chan []NodeID, batchCount)}
	// The batches' storage, free once the count is done, is then the
	// walk's fwd; it holds at least one int32 per node for that.
	size := batchSize(a.n)
	buf := make([]NodeID, max(batchCount*size, a.n))
	a.fwd = buf[:a.n]
	for i := 0; i < batchCount; i++ {
		p.free <- buf[i*size : i*size : (i+1)*size]
	}
	go p.produce(s)
	defer func() {
		close(p.free) // stops a producer that waits for a batch
		for range p.full {
		}
	}()
	for c := range p.full {
		for i := 0; i < len(c); i += 2 {
			a.count(c[i], c[i+1])
		}
		p.free <- c[:0]
	}
	if p.failure != nil {
		panic(p.failure)
	}
}

// produce runs s on the producer goroutine.
func (p *pipe) produce(s EdgeStream) {
	defer close(p.full)
	defer func() {
		if r := recover(); r != nil && r != (stopped{}) {
			p.failure = r
		}
	}()
	p.batch = <-p.free
	s.Edges(p.emit)
	p.full <- p.batch
}

// emit files one emission, handing the batch over when it is full.
func (p *pipe) emit(u, v NodeID) {
	if len(p.batch) == cap(p.batch) {
		p.full <- p.batch
		var ok bool
		if p.batch, ok = <-p.free; !ok {
			panic(stopped{})
		}
	}
	p.batch = append(p.batch, u, v)
}

// assembly is FromStream's state. During the count, offsets[u+1] counts
// u's upper neighbours and low[v] v's lower neighbours; during the walk,
// offsets[u] is the start of u's row in edges, low[u] the start of its
// upper part (the high half's backward cursor of u's lower part) and
// fwd[u] the low half's forward cursor of u's lower part.
type assembly struct {
	n       int
	m       int // the emissions counted, self-loops excluded
	offsets []int32
	low     []int32
	edges   []NodeID
	fwd     []int32
	// monotone holds while no emission's smaller endpoint has been
	// below its predecessor's (last). Until it breaks, full[:k] and then
	// tail keep the larger endpoints in emission order, in chunks that
	// start at 2n entries and grow by half (a chunk is zeroed, and so
	// resident, in full when it is made).
	monotone bool
	last     NodeID
	tail     []NodeID
	k        int
	full     [48][]NodeID
}

func (a *assembly) count(u, v NodeID) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || int(u) >= a.n || int(v) >= a.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, a.n))
	}
	if u > v {
		u, v = v, u
	}
	a.m++
	a.offsets[u+1]++
	a.low[v]++
	if !a.monotone {
		return
	}
	if u < a.last {
		a.monotone, a.tail, a.full = false, nil, [48][]NodeID{}
		return
	}
	a.last = u
	if len(a.tail) == cap(a.tail) {
		a.grow()
	}
	a.tail = append(a.tail, v)
}

// grow files the full tail chunk and starts the next one.
func (a *assembly) grow() {
	size := max(2*a.n, 256)
	if a.tail != nil {
		a.full[a.k] = a.tail
		a.k++
		size = cap(a.tail) + cap(a.tail)/2
	}
	a.tail = make([]NodeID, 0, size)
}

// BuildConnected materializes a stream and stitches connectivity: if
// the sample is disconnected, each secondary component (in ascending
// min-node order) is joined to node 0's component by one random edge
// drawn from the seed (StitchConnected, which the older seeded
// generators use, draws from their own generator instead). The stitch
// edges are spliced into the built CSR; the stream runs no extra time.
// A sample that is connected already keeps the depth of the sweep
// that found it so, which Eccentricity(g, 0) then returns without a
// sweep of its own.
func BuildConnected(s EdgeStream, seed uint64) *Graph {
	g := FromStream(s)
	if g.n == 0 {
		return g
	}
	seen, count, depth := sweep(g, 0)
	if count == g.n {
		g.ecc0 = depth + 1
		return g
	}
	reached := make([]NodeID, 0, count) // node 0's component, ascending
	for i, w := range seen {
		for ; w != 0; w &= w - 1 {
			reached = append(reached, NodeID(i<<6|bits.TrailingZeros64(w)))
		}
	}
	r := rng.New(seed, 0x737469) // "sti"
	var comp, us, vs []NodeID
	for v := 0; v < g.n; v++ {
		if seen[v>>6]&(1<<(v&63)) != 0 {
			continue
		}
		// Collect this component, pick a random member, stitch it to a
		// random node of the main component.
		comp, _ = reach(g, seen, comp[:0], NodeID(v))
		us = append(us, reached[r.Intn(len(reached))])
		vs = append(vs, comp[r.Intn(len(comp))])
	}
	return g.splice(us, vs)
}

// splice returns g plus the undirected edges {us[i], vs[i]}, merged
// into the sorted rows in one pass. Each edge must be absent from g and
// appear once in the list.
func (g *Graph) splice(us, vs []NodeID) *Graph {
	arcs := make([]uint64, 0, 2*len(us)) // from<<32 | to
	for i, u := range us {
		v := vs[i]
		arcs = append(arcs, uint64(u)<<32|uint64(v), uint64(v)<<32|uint64(u))
	}
	slices.Sort(arcs)
	out := &Graph{n: g.n, name: g.name, offsets: make([]int32, g.n+1)}
	out.edges = make([]NodeID, 0, len(g.edges)+len(arcs))
	for v := 0; v < g.n; v++ {
		out.offsets[v] = int32(len(out.edges))
		row := g.Neighbors(NodeID(v))
		for ; len(arcs) > 0 && arcs[0]>>32 == uint64(v); arcs = arcs[1:] {
			to := NodeID(uint32(arcs[0]))
			i, _ := slices.BinarySearch(row, to)
			out.edges = append(append(out.edges, row[:i]...), to)
			row = row[i:]
		}
		out.edges = append(out.edges, row...)
	}
	out.offsets[g.n] = int32(len(out.edges))
	return out
}

// ---------------------------------------------------------------------
// Streaming generators. Path, Grid and ClusterChain are FromStream over
// the first three. StreamGNP and StreamRandomRegular sample the
// distributions of GNP and RandomRegular but CANNOT replay their draws
// (GNP consumes Θ(n²) uniforms where the stream skips geometrically),
// so they are distinct named families.

// pathStream emits the path 0-1-...-n-1.
type pathStream struct{ n int }

// StreamPath is the streaming counterpart of Path.
func StreamPath(n int) EdgeStream { return pathStream{n} }

func (s pathStream) N() int       { return s.n }
func (s pathStream) Name() string { return fmt.Sprintf("path-%d", s.n) }

func (s pathStream) Edges(emit func(u, v NodeID)) {
	for v := 0; v+1 < s.n; v++ {
		emit(NodeID(v), NodeID(v+1))
	}
}

// gridStream emits the rows x cols grid.
type gridStream struct{ rows, cols int }

// StreamGrid is the streaming counterpart of Grid.
func StreamGrid(rows, cols int) EdgeStream { return gridStream{rows, cols} }

func (s gridStream) N() int       { return s.rows * s.cols }
func (s gridStream) Name() string { return fmt.Sprintf("grid-%dx%d", s.rows, s.cols) }

func (s gridStream) Edges(emit func(u, v NodeID)) {
	id := func(r, c int) NodeID { return NodeID(r*s.cols + c) }
	for r := 0; r < s.rows; r++ {
		for c := 0; c < s.cols; c++ {
			if c+1 < s.cols {
				emit(id(r, c), id(r, c+1))
			}
			if r+1 < s.rows {
				emit(id(r, c), id(r+1, c))
			}
		}
	}
}

// clusterChainStream emits the chain-of-cliques workload.
type clusterChainStream struct{ chain, clique int }

// StreamClusterChain is the streaming counterpart of ClusterChain.
func StreamClusterChain(chain, clique int) EdgeStream {
	return clusterChainStream{chain, clique}
}

func (s clusterChainStream) N() int { return s.chain * s.clique }
func (s clusterChainStream) Name() string {
	return fmt.Sprintf("clusterchain-%dx%d", s.chain, s.clique)
}

func (s clusterChainStream) Edges(emit func(u, v NodeID)) {
	id := func(c, i int) NodeID { return NodeID(c*s.clique + i) }
	for c := 0; c < s.chain; c++ {
		for i := 0; i < s.clique; i++ {
			for j := i + 1; j < s.clique; j++ {
				emit(id(c, i), id(c, j))
			}
		}
		if c+1 < s.chain {
			emit(id(c, s.clique-1), id(c+1, 0))
		}
	}
}

// gnpStream samples G(n, p) by geometric skipping over the linear
// index of the u<v pair sequence: instead of one Bernoulli draw per
// pair (Θ(n²) draws), each uniform draw jumps Geometric(p) pairs ahead
// to the next edge, so generation is O(m) draws. Identical
// distribution to GNP, different draw sequence.
type gnpStream struct {
	n    int
	p    float64
	seed uint64
}

// StreamGNP is the streaming G(n, p) sampler; wrap it in
// BuildConnected for a single broadcast domain.
func StreamGNP(n int, p float64, seed uint64) EdgeStream {
	return gnpStream{n: n, p: p, seed: seed}
}

func (s gnpStream) N() int       { return s.n }
func (s gnpStream) Name() string { return fmt.Sprintf("gnp-%d-p%.4g", s.n, s.p) }

func (s gnpStream) Edges(emit func(u, v NodeID)) {
	n := int64(s.n)
	total := n * (n - 1) / 2
	if total <= 0 || s.p <= 0 {
		return
	}
	if s.p >= 1 {
		for u := int64(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				emit(NodeID(u), NodeID(v))
			}
		}
		return
	}
	r := rng.New(s.seed, 0x6e7073) // "nps"
	logq := math.Log1p(-s.p)       // ln(1-p) < 0
	inv, end := 1/logq, float64(total)
	k := int64(-1) // linear index of the last emitted pair
	u := int64(0)
	base := int64(0) // linear index of pair (u, u+1)
	for {
		// skip ~ Geometric(p): non-edges before the next edge. 1-F is
		// uniform on (0, 1], so Log1p(-F) is finite.
		f := r.Float64()
		skipF, ok := fastSkip(f, inv, end)
		if !ok {
			skipF = math.Log1p(-f) / logq
		}
		if skipF >= end {
			return
		}
		k += 1 + int64(skipF)
		if k >= total {
			return
		}
		for k >= base+(n-1-u) {
			base += n - 1 - u
			u++
		}
		emit(NodeID(u), NodeID(u+1+(k-base)))
	}
}

// skipBand is fastSkip's relative guard band. It is about a thousand
// times the few ulps by which fastSkip's quotient and Log1p(-f)/logq
// can differ, and so narrow that fastSkip declines a draw of quotient
// q with probability about q·2^-39.
const skipBand = 0x1p-40

// fastSkip computes gnpStream's skip Log1p(-f)/logq through math.Log,
// which is assembly on amd64 where Log1p is not, and a multiplication
// by inv = 1/logq in place of the division. The uniform f keeps 53
// significant bits but, below 1/2, at a finer scale than 2^-53, so 1-f
// rounds to h; the rounding error l is exact (Fast2Sum) and is added
// back: ln(1-f) = ln(h+l) = ln h + l/h + O(l²), and l stands in for l/h
// to within 2^-54 of the result. The quotient q thus differs from the
// Log1p one by a few ulps. fastSkip reports ok only when every value
// within skipBand of q truncates to the same integer and lies on the
// same side of end as q, so the caller's int64(skip) and skip >= end
// read exactly as they would for the Log1p quotient; otherwise the
// caller computes that quotient.
func fastSkip(f, inv, end float64) (skip float64, ok bool) {
	h := 1 - f
	l := (1 - h) - f // 1-f = h+l exactly, for 0 <= f < 1
	q := (math.Log(h) + l) * inv
	lo, hi := q-q*skipBand, q+q*skipBand
	if hi >= end {
		return q, lo >= end
	}
	return q, int64(lo) == int64(hi)
}

// regularStream samples the pairing model of RandomRegular without
// recording the edges: n·d stubs, one shuffle, consecutive pairs become edges
// (self-pairs dropped here, duplicate pairs deduplicated by the CSR
// assembly). Peak extra memory is the 4·n·d-byte stub array per pass.
// Identical distribution to RandomRegular, different draw sequence.
type regularStream struct {
	n, d int
	seed uint64
}

// StreamRandomRegular is the streaming (approximately) d-regular
// sampler; wrap it in BuildConnected for a single broadcast domain.
func StreamRandomRegular(n, d int, seed uint64) EdgeStream {
	return regularStream{n: n, d: d, seed: seed}
}

func (s regularStream) N() int       { return s.n }
func (s regularStream) Name() string { return fmt.Sprintf("regular-%d-d%d", s.n, s.d) }

func (s regularStream) Edges(emit func(u, v NodeID)) {
	r := rng.New(s.seed, 0x727273) // "rrs"
	stubs := make([]NodeID, 0, s.n*s.d)
	for v := 0; v < s.n; v++ {
		for i := 0; i < s.d; i++ {
			stubs = append(stubs, NodeID(v))
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for i := 0; i+1 < len(stubs); i += 2 {
		emit(stubs[i], stubs[i+1])
	}
}
