package geo

import (
	"math"
	"testing"
	"testing/quick"

	"radiocast/internal/graph"
)

// bruteDisk is the O(n²) reference implementation of the unit-disk
// stream: every pair compared, each edge emitted once with u < v.
type bruteDisk struct {
	l      *Layout
	radius float64
}

func (b *bruteDisk) N() int       { return b.l.N() }
func (b *bruteDisk) Name() string { return "brute-" + b.l.name }

func (b *bruteDisk) Edges(emit func(u, v graph.NodeID)) {
	n := b.l.N()
	r2 := b.radius * b.radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx := b.l.X[v] - b.l.X[u]
			dy := b.l.Y[v] - b.l.Y[u]
			if dx*dx+dy*dy <= r2 {
				emit(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
}

// sameCSR reports whether two graphs have identical CSR arrays.
// FromStream sorts and dedups every adjacency row, so CSR equality is
// independent of edge emission order.
func sameCSR(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("node count: got %d want %d", got.N(), want.N())
	}
	gOff, gEdges := got.CSR()
	wOff, wEdges := want.CSR()
	if len(gOff) != len(wOff) || len(gEdges) != len(wEdges) {
		t.Fatalf("CSR sizes: got %d/%d want %d/%d", len(gOff), len(gEdges), len(wOff), len(wEdges))
	}
	for i := range gOff {
		if gOff[i] != wOff[i] {
			t.Fatalf("offset[%d]: got %d want %d", i, gOff[i], wOff[i])
		}
	}
	for i := range gEdges {
		if gEdges[i] != wEdges[i] {
			t.Fatalf("edge[%d]: got %d want %d", i, gEdges[i], wEdges[i])
		}
	}
}

func TestDiskMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout *Layout
		radius float64
	}{
		{"uniform-small", Uniform(40, 1), 0.25},
		{"uniform-tight", Uniform(120, 2), 0.08},
		{"uniform-wide", Uniform(60, 3), 0.9},
		{"uniform-conn", Uniform(200, 4), ConnectivityRadius(200)},
		{"clustered", Clustered(90, 5, 0.05, 6), 0.06},
		{"clustered-bridge", Clustered(90, 3, 0.2, 7), 0.3},
		{"tiny", Uniform(2, 8), 0.5},
		{"single", Uniform(1, 9), 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast := graph.FromStream(NewDisk(tc.layout, tc.radius))
			brute := graph.FromStream(&bruteDisk{l: tc.layout, radius: tc.radius})
			sameCSR(t, fast, brute)
		})
	}
}

func TestLayoutDeterminism(t *testing.T) {
	a := Uniform(500, 42)
	b := Uniform(500, 42)
	c := Uniform(500, 43)
	diff := false
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
			t.Fatalf("same-seed layouts diverge at node %d", i)
		}
		if a.X[i] != c.X[i] {
			diff = true
		}
		if a.X[i] < 0 || a.X[i] >= 1 || a.Y[i] < 0 || a.Y[i] >= 1 {
			t.Fatalf("node %d outside unit square: (%g, %g)", i, a.X[i], a.Y[i])
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical layouts")
	}

	ca := Clustered(300, 5, 0.04, 7)
	cb := Clustered(300, 5, 0.04, 7)
	for i := range ca.X {
		if ca.X[i] != cb.X[i] || ca.Y[i] != cb.Y[i] {
			t.Fatalf("same-seed clustered layouts diverge at node %d", i)
		}
		if ca.X[i] < 0 || ca.X[i] >= 1 || ca.Y[i] < 0 || ca.Y[i] >= 1 {
			t.Fatalf("clustered node %d outside unit square", i)
		}
	}
}

func TestClusteredIsClustered(t *testing.T) {
	// With spread far below typical center separation, the disk graph
	// at a radius just above the spread should split into components —
	// i.e. strictly fewer edges than the connected uniform layout
	// would need, and no single row spanning most of the graph.
	l := Clustered(120, 6, 0.03, 11)
	g := graph.FromStream(NewDisk(l, 0.05))
	off, _ := g.CSR()
	maxDeg := int32(0)
	for v := 0; v < g.N(); v++ {
		if d := off[v+1] - off[v]; d > maxDeg {
			maxDeg = d
		}
	}
	// Each cluster holds n/clusters = 20 nodes; a node can only reach
	// its own cluster (plus rare overlapping centers), never most of
	// the graph.
	if maxDeg > 60 {
		t.Fatalf("clustered layout too dense: max degree %d", maxDeg)
	}
}

func TestDiskStreamStable(t *testing.T) {
	// The EdgeStream contract: two passes emit the identical sequence.
	l := Uniform(150, 13)
	d := NewDisk(l, ConnectivityRadius(150))
	type edge struct{ u, v graph.NodeID }
	var first []edge
	d.Edges(func(u, v graph.NodeID) { first = append(first, edge{u, v}) })
	i := 0
	d.Edges(func(u, v graph.NodeID) {
		if i >= len(first) || first[i] != (edge{u, v}) {
			t.Fatalf("second pass diverges at emission %d", i)
		}
		i++
	})
	if i != len(first) {
		t.Fatalf("second pass emitted %d edges, first %d", i, len(first))
	}
	for _, e := range first {
		if e.u >= e.v {
			t.Fatalf("edge (%d,%d) not emitted with u < v", e.u, e.v)
		}
	}
}

// runCounter counts the runs of the stream it wraps.
type runCounter struct {
	graph.EdgeStream
	runs int
}

func (c *runCounter) Edges(emit func(u, v graph.NodeID)) {
	c.runs++
	c.EdgeStream.Edges(emit)
}

// TestDiskBuildRunsOnce pins that the unit-disk stream, whose smaller
// endpoints never decrease, is run once by BuildConnected, also when
// the sample has to be stitched.
func TestDiskBuildRunsOnce(t *testing.T) {
	l := Uniform(400, 5)
	for _, r := range []float64{ConnectivityRadius(400), 0.02} {
		c := &runCounter{EdgeStream: NewDisk(l, r)}
		if g := graph.BuildConnected(c, 1); !graph.IsConnected(g) {
			t.Fatalf("r=%g: not connected", r)
		}
		if c.runs != 1 {
			t.Errorf("r=%g: stream ran %d times, want 1", r, c.runs)
		}
	}
}

// TestStockStreamsEmissionOrder pins the emission order that lets
// graph.FromStream assemble every stock generator from one run: each
// edge comes as (u, v) with u < v, and u never decreases. The graph
// package's generators also emit every upper row (the v of one u)
// strictly ascending, so FromStream sorts none of their rows. Disk's
// rows are the concatenation of up to nine ascending cell lists and are
// sorted by FromStream: a merge of the cell lists in Disk.Edges made
// the E22 sweep slower, because the stream runs on one core and the
// sort in FromStream's walk on two.
func TestStockStreamsEmissionOrder(t *testing.T) {
	l := Uniform(3000, 3)
	for _, c := range []struct {
		s         graph.EdgeStream
		ascending bool
	}{
		{graph.StreamPath(300), true},
		{graph.StreamGrid(17, 23), true},
		{graph.StreamClusterChain(11, 9), true},
		{graph.StreamGNP(3000, 16.0/3000, 3), true},
		{graph.StreamGNP(200, 0.5, 3), true},
		{graph.StreamGNP(40, 1, 3), true},
		{NewDisk(l, ConnectivityRadius(3000)), false},
		{NewDisk(Clustered(3000, 55, 0.02, 3), ConnectivityRadius(3000)), false},
	} {
		prevU, prevV, emissions := graph.NodeID(-1), graph.NodeID(-1), 0
		c.s.Edges(func(u, v graph.NodeID) {
			emissions++
			switch {
			case u >= v:
				t.Fatalf("%s: edge (%d,%d) not emitted with u < v", c.s.Name(), u, v)
			case u < prevU:
				t.Fatalf("%s: u went back from %d to %d", c.s.Name(), prevU, u)
			case c.ascending && u == prevU && v <= prevV:
				t.Fatalf("%s: row %d not strictly ascending (%d after %d)", c.s.Name(), u, v, prevV)
			}
			prevU, prevV = u, v
		})
		if emissions == 0 {
			t.Fatalf("%s: no emission", c.s.Name())
		}
	}
}

func TestWaypointStaysInBoundsAndDeterministic(t *testing.T) {
	la := Uniform(200, 21)
	lb := Uniform(200, 21)
	wa := NewWaypoint(la, 0.01, 99)
	wb := NewWaypoint(lb, 0.01, 99)
	wa.Advance(500)
	wb.Advance(500)
	for i := range la.X {
		if la.X[i] != lb.X[i] || la.Y[i] != lb.Y[i] {
			t.Fatalf("same-seed waypoint walks diverge at node %d", i)
		}
		if la.X[i] < 0 || la.X[i] >= 1 || la.Y[i] < 0 || la.Y[i] >= 1 {
			t.Fatalf("node %d left the unit square: (%g, %g)", i, la.X[i], la.Y[i])
		}
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	l := Uniform(50, 31)
	x0 := append([]float64(nil), l.X...)
	y0 := append([]float64(nil), l.Y...)
	w := NewWaypoint(l, 0.005, 7)
	w.Advance(64)
	total := 0.0
	for i := range l.X {
		dx := l.X[i] - x0[i]
		dy := l.Y[i] - y0[i]
		total += math.Sqrt(dx*dx + dy*dy)
	}
	if total/float64(l.N()) < 0.005 {
		t.Fatalf("mean displacement %g after 64 steps at speed 0.005 — stepper is not moving nodes", total/float64(l.N()))
	}
}

func TestUnitDiskConnected(t *testing.T) {
	g := UnitDisk(200, ConnectivityRadius(200), 3)
	if !graph.IsConnected(g) {
		t.Fatal("UDG not connected after stitching")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBFSDistanceTriangleProperty(t *testing.T) {
	// For every edge (u,v): |dist(u) - dist(v)| <= 1.
	f := func(seed uint64) bool {
		g := UnitDisk(80, ConnectivityRadius(80), seed)
		res := graph.BFS(g, 0)
		for v := 0; v < g.N(); v++ {
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				d := res.Dist[v] - res.Dist[u]
				if d < -1 || d > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
