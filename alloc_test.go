package radiocast

// Allocation-regression guards for the run-reuse layer. These pin the
// two properties the perf work established:
//
//  1. the steady-state round loop — wake queue, CSR delivery, cached
//     boxed packets — allocates NOTHING per round;
//  2. a Reset-reused Theorem 1.3 run (the allocation-heaviest stack)
//     stays under a fixed per-run allocation budget, two orders of
//     magnitude below the construct-per-run historical cost (~33k).
//
// CI runs these on every push; the benchmarks in bench_test.go track
// the same numbers with -benchmem for humans.

import (
	"runtime"
	"testing"

	"radiocast/internal/adapt"
	"radiocast/internal/beep"
	"radiocast/internal/channel"
	"radiocast/internal/cr"
	"radiocast/internal/decay"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/gstdist"
	"radiocast/internal/harness"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// TestSteadyStateRoundLoopAllocsZero drives a warmed-up Decay network
// one round at a time: after the first few rounds have sized the
// scratch buffers and boxed the message packets, stepping must be
// allocation-free — the engine's ring wake buckets, stamp arrays, and
// reused pop buffer do all per-round work in place. It runs on the
// ideal channel, under erasure (link-only: first-touch resolve with
// DropLink in the delivery pass), and under noisy CD (the awake-listener Observe
// sweep).
func TestSteadyStateRoundLoopAllocsZero(t *testing.T) {
	cases := []struct {
		name string
		ch   radio.Channel
	}{
		{"ideal", nil},
		{"erasure", channel.NewErasure(0.1, 99)},
		{"noisycd-sweep", channel.NewNoisyCD(0.05, 0.05, 99)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := graph.ClusterChain(4, 6)
			nw := radio.New(g, radio.Config{Channel: tc.ch})
			for v := 0; v < g.N(); v++ {
				nw.SetProtocol(graph.NodeID(v),
					decay.NewBroadcast(decay.PlainSchedule(g.N()), v == 0, decay.Message{Data: 1}, rng.New(7, uint64(v))))
			}
			nw.Run(64) // warm: scratch sized, packets boxed, message spread
			allocs := testing.AllocsPerRun(100, func() { nw.Step() })
			if allocs != 0 {
				t.Fatalf("steady-state round loop allocates %.1f objects/round, want 0", allocs)
			}
		})
	}
}

// TestSteadyStateRoundLoopAllocsZeroCD repeats the guard with
// collision detection enabled and all nodes transmitting (dense ⊤
// deliveries) — the CD delivery branch must be in-place too.
func TestSteadyStateRoundLoopAllocsZeroCD(t *testing.T) {
	g := graph.ClusterChain(4, 6)
	nw := radio.New(g, radio.Config{CollisionDetection: true})
	for v := 0; v < g.N(); v++ {
		// Every node holds the message: the clique interiors collide
		// every phase, exercising ⊤ delivery.
		nw.SetProtocol(graph.NodeID(v),
			decay.NewBroadcast(decay.PlainSchedule(g.N()), true, decay.Message{Data: 1}, rng.New(7, uint64(v))))
	}
	nw.Run(64)
	allocs := testing.AllocsPerRun(100, func() { nw.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state CD round loop allocates %.1f objects/round, want 0", allocs)
	}
}

// TestSteadyStateRoundLoopAllocsZeroPipelined repeats the guard on the
// pipelined boundary construction (E6): with several same-parity
// boundaries driving concurrently, the steady-state round loop — phase
// arithmetic, boundary-machine windows, tagged boxed packets — must
// still allocate nothing. The warm-up lands mid-identification-window
// of a mid-schedule phase (window length C·L² = 128 rounds at
// N=256, c=2), so the measured steps never cross a window start (the
// only points that construct recruiting machines).
func TestSteadyStateRoundLoopAllocsZeroPipelined(t *testing.T) {
	g := graph.Grid(4, 8)
	d := graph.Eccentricity(g, 0)
	cfg := gstdist.DefaultConfig(256, d, 2, gstdist.LayerPreset, false)
	cfg.PipelinedBoundaries = true
	levels := graph.BFS(g, 0).Dist
	nw := radio.New(g, radio.Config{})
	for v := 0; v < g.N(); v++ {
		nw.SetProtocol(graph.NodeID(v),
			gstdist.New(cfg, graph.NodeID(v), v == 0, levels[v], rng.New(7, uint64(v))))
	}
	// Phase 6 drives boundaries 0 and 2 concurrently; step inside its
	// identification window.
	warm := 6*cfg.Assign.RankLen() + 4
	nw.Run(warm)
	allocs := testing.AllocsPerRun(100, func() { nw.Step() })
	if allocs != 0 {
		t.Fatalf("pipelined steady-state round loop allocates %.1f objects/round, want 0", allocs)
	}
}

// TestDenseSteadyStateAllocsZero pins the dense engine's core scale
// property: after warm-up has sized the transmitter lists and the
// touched-listener scratch, stepping allocates nothing —
// sequentially and with the parallel delivery pass engaged (the
// clusterchain's clique floods push the transmitter count past the
// parallel gate, so the fan-out path is genuinely exercised).
func TestDenseSteadyStateAllocsZero(t *testing.T) {
	cases := []struct {
		name    string
		g       *graph.Graph
		workers int
		warm    int64
	}{
		// The 192x192 grid keeps a ~200-node frontier alive for thousands
		// of rounds, so its low-slot rounds exceed the parallel gate and
		// the measured window genuinely runs the fan-out path.
		{"sequential-path2048", graph.FromStream(graph.StreamPath(2048)), 1, 512},
		{"parallel-grid192x192", graph.FromStream(graph.StreamGrid(192, 192)), 4, 2000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pr := decay.NewDense(tc.g, 7, 0)
			eng := radio.NewDense(tc.g, radio.Config{Workers: tc.workers}, pr)
			defer eng.Close()
			eng.Run(tc.warm)
			if pr.Done() {
				t.Fatal("warm-up completed the broadcast; nothing left to measure")
			}
			allocs := testing.AllocsPerRun(64, func() { eng.Step() })
			if allocs != 0 {
				t.Fatalf("dense steady-state round loop allocates %.2f objects/round, want 0", allocs)
			}
		})
	}
}

// The dense 0-alloc cases' erasure channels (stateless, so shared):
// bare erasure is link-only and rides the ideal collect/deliver path; behind
// struct{ radio.Channel } the capability is hidden and the engine runs
// the per-listener Observe sweep.
var (
	denseErasure      radio.Channel = channel.NewErasure(0.1, 99)
	denseErasureSweep radio.Channel = struct{ radio.Channel }{denseErasure}
)

// TestDenseCatalogSteadyStateAllocsZero extends the 0-alloc guard to
// the rest of the SoA catalog — decay.Dense on the CR schedule
// (cr.NewDense: keyed FastDecay draws) and beep.DenseWave
// (deterministic frontier pulses) — sequentially, with the parallel
// delivery pass, and under per-link erasure on both channel paths:
// bare erasure is link-only and stays on the ideal collect/deliver path, while
// the same erasure behind a struct{ radio.Channel } wrapper hides that
// capability and forces the per-listener hear-count sweep, which must
// be in-place too. Warm-ups are sized so the measured window never
// crosses completion.
func TestDenseCatalogSteadyStateAllocsZero(t *testing.T) {
	grid := func() *graph.Graph { return graph.FromStream(graph.StreamGrid(192, 192)) }
	path := func() *graph.Graph { return graph.FromStream(graph.StreamPath(2048)) }
	mkCR := func(g *graph.Graph) (radio.DenseProtocol, func() bool) {
		p := cr.NewDense(g, cr.NewParams(g.N(), graph.Eccentricity(g, 0)), 7, 0)
		return p, p.Done
	}
	mkWave := func(g *graph.Graph) (radio.DenseProtocol, func() bool) {
		// Horizon far past the measured window: the wave must not finish
		// (or fall silent) while we measure.
		w := beep.NewDenseWave(g, 0, 1<<20)
		return w, w.Done
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		mk      func(*graph.Graph) (radio.DenseProtocol, func() bool)
		workers int
		cd      bool
		ch      radio.Channel
		warm    int64
	}{
		{"cr-sequential-path2048", path(), mkCR, 1, false, nil, 512},
		{"cr-parallel-grid192x192", grid(), mkCR, 4, false, nil, 1000},
		{"cr-erasure-grid192x192", grid(), mkCR, 4, false, denseErasure, 1000},
		{"cr-erasure-sweep-grid192x192", grid(), mkCR, 4, false, denseErasureSweep, 1000},
		{"wave-sequential-path2048", path(), mkWave, 1, true, nil, 512},
		{"wave-parallel-grid192x192", grid(), mkWave, 4, true, nil, 128},
		{"wave-erasure-grid192x192", grid(), mkWave, 4, true, denseErasure, 128},
		{"wave-erasure-sweep-grid192x192", grid(), mkWave, 4, true, denseErasureSweep, 128},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := radio.Config{Workers: tc.workers, CollisionDetection: tc.cd, Channel: tc.ch}
			pr, done := tc.mk(tc.g)
			eng := radio.NewDense(tc.g, cfg, pr)
			defer eng.Close()
			eng.Run(tc.warm)
			if done() {
				t.Fatal("warm-up completed the run; nothing left to measure")
			}
			allocs := testing.AllocsPerRun(64, func() { eng.Step() })
			if allocs != 0 {
				t.Fatalf("dense steady-state round loop allocates %.2f objects/round, want 0", allocs)
			}
			if done() {
				t.Fatal("measured window crossed completion; shrink the warm-up")
			}
		})
	}
}

// TestDenseGSTSteadyStateAllocsZero extends the 0-alloc guard to the
// structured GST broadcast (mmv.Dense over gst.Flat): the fast-slot
// residue walk, the bucketed keyed slow draws, frontier pruning, and
// the relay arming/clearing must all run in place — sequentially, with
// the parallel delivery pass (the 192x192 grid keeps hundreds of
// fast-slot transmitters per even round, past the parallel gate), and
// under erasure on both channel paths (link-only resolve and the forced
// listener sweep). Warm-ups stop well short of the
// deepest tree level (a fast wave moves at most one level per two
// rounds), so the measured window stays mid-broadcast. The noised
// cluster-chain cases cover the pulled delivery: uninformed members
// flood their cliques, and the direction rule pulls in round 71, inside
// the measured rounds 64-128, on the ideal, link-only and sweep paths.
// Their fault table crashes a fifth of the nodes within 256 rounds, so
// that round also reads the bitset of the transmitters that survive
// suppression.
func TestDenseGSTSteadyStateAllocsZero(t *testing.T) {
	build := func(g *graph.Graph, noise bool) (radio.DenseProtocol, func() bool) {
		f := gst.Flatten(gst.Construct(g, 0))
		p := mmv.NewDense(g, f, mmv.NewSchedule(g.N()), 7, 0, noise)
		return p, p.Done
	}
	grid := graph.FromStream(graph.StreamGrid(192, 192))
	cluster := graph.ClusterChain(40, 40)
	faults := channel.RandomFaults(cluster.N(), 0, 0.1, 40, 0.2, 256, 5)
	cases := []struct {
		name    string
		g       *graph.Graph
		workers int
		ch      radio.Channel
		warm    int64
		noise   bool
	}{
		{"sequential-path2048", graph.FromStream(graph.StreamPath(2048)), 1, nil, 512, false},
		{"parallel-grid192x192", grid, 4, nil, 512, false},
		{"erasure-grid192x192", grid, 4, denseErasure, 512, false},
		{"erasure-sweep-grid192x192", grid, 4, denseErasureSweep, 512, false},
		{"noise-cluster40x40", cluster, 4, nil, 64, true},
		{"noise-erasure-cluster40x40", cluster, 4, denseErasure, 64, true},
		{"noise-faults-cluster40x40", cluster, 4, faults, 64, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := radio.Config{Workers: tc.workers, Channel: tc.ch}
			pr, done := build(tc.g, tc.noise)
			eng := radio.NewDense(tc.g, cfg, pr)
			defer eng.Close()
			eng.Run(tc.warm)
			if done() {
				t.Fatal("warm-up completed the run; nothing left to measure")
			}
			allocs := testing.AllocsPerRun(64, func() { eng.Step() })
			if allocs != 0 {
				t.Fatalf("dense GST steady-state round loop allocates %.2f objects/round, want 0", allocs)
			}
			if done() {
				t.Fatal("measured window crossed completion; shrink the warm-up")
			}
		})
	}

	// Post-completion steady state: once every member is informed, the
	// stretch starts keep pulsing their fast slots forever (the schedule
	// never stops) while pruning silences the slow slots — that
	// perpetual-wave regime must be allocation-free too.
	t.Run("post-completion-cluster12x16", func(t *testing.T) {
		g := graph.ClusterChain(12, 16)
		pr, done := build(g, false)
		eng := radio.NewDense(g, radio.Config{}, pr)
		defer eng.Close()
		if _, ok := eng.RunUntil(1<<18, done); !ok {
			t.Fatal("GST broadcast incomplete; cannot measure post-completion steady state")
		}
		eng.Run(64) // settle into the perpetual fast-wave cycle
		allocs := testing.AllocsPerRun(64, func() { eng.Step() })
		if allocs != 0 {
			t.Fatalf("post-completion GST round loop allocates %.2f objects/round, want 0", allocs)
		}
	})
}

// TestRetopoSteadyStateAllocsZero pins the topology-swap half of the
// reuse contract on both engines: after a same-n Retopo (grid CSR
// swapped in for a path CSR), the warmed round loop must still
// allocate nothing — the swap replaces only the two CSR slice
// headers, never the per-node scratch. The swap itself must also be
// allocation-free (two slice-header stores).
func TestRetopoSteadyStateAllocsZero(t *testing.T) {
	const side = 48 // 2304 nodes: path(2304) and grid(48x48) share n
	pathG := graph.FromStream(graph.StreamPath(side * side))
	gridG := graph.FromStream(graph.StreamGrid(side, side))
	off, edges := gridG.CSR()

	t.Run("sparse", func(t *testing.T) {
		nw := radio.New(pathG, radio.Config{})
		protos := make([]*decay.Broadcast, pathG.N())
		for v := range protos {
			protos[v] = decay.NewBroadcast(decay.PlainSchedule(pathG.N()), v == 0, decay.Message{Data: 1}, rng.New(7, uint64(v)))
			nw.SetProtocol(graph.NodeID(v), protos[v])
		}
		nw.Run(64) // warm on the path topology
		if swapAllocs := testing.AllocsPerRun(8, func() {
			nw.Retopo(off, edges)
		}); swapAllocs != 0 {
			t.Fatalf("Network.Retopo allocates %.1f objects/swap, want 0", swapAllocs)
		}
		nw.Run(64) // settle on the grid topology
		if allocs := testing.AllocsPerRun(100, func() { nw.Step() }); allocs != 0 {
			t.Fatalf("post-Retopo round loop allocates %.1f objects/round, want 0", allocs)
		}
	})

	t.Run("dense", func(t *testing.T) {
		pr := decay.NewDense(pathG, 7, 0)
		eng := radio.NewDense(pathG, radio.Config{Workers: 4}, pr)
		defer eng.Close()
		eng.Run(256) // warm on the path topology
		if swapAllocs := testing.AllocsPerRun(8, func() {
			eng.Retopo(off, edges)
		}); swapAllocs != 0 {
			t.Fatalf("Dense.Retopo allocates %.1f objects/swap, want 0", swapAllocs)
		}
		eng.Run(64) // settle on the grid topology
		if pr.Done() {
			t.Fatal("warm-up completed the broadcast; nothing left to measure")
		}
		if allocs := testing.AllocsPerRun(64, func() { eng.Step() }); allocs != 0 {
			t.Fatalf("post-Retopo dense round loop allocates %.2f objects/round, want 0", allocs)
		}
	})
}

// denseRunAllocs pins the objects of one whole sequential run of each
// dense catalog entry on a reused context, read by
// testing.AllocsPerRun: the SoA protocol state, the engine's bitsets,
// per-node scratch and per-partition lists, and the append growth of
// those lists (the GST entry adds its per-residue fast lists). A
// sequential run allocates the same objects every time, so the pins
// have no tolerance: one new object per run fails here, where the
// BenchmarkEngine_Dense* rows at -benchtime 3x read a spread under a
// 25% band. They read exactly these counts with go1.24 on
// linux/amd64; like streamBuildAllocs they are ceilings, so a
// toolchain that allocates less passes.
var denseRunAllocs = []struct {
	name string
	max  float64
}{
	{"dense-decay", 37},
	{"dense-cr", 35},
	{"dense-wave", 35},
	{"dense-gst", 340},
}

// TestDenseRunAllocs runs every dense catalog entry once over a
// 64×64 grid from node 0 on the ideal channel with one partition,
// after a warm-up run on the same context, and pins its allocations.
func TestDenseRunAllocs(t *testing.T) {
	g := graph.FromStream(graph.StreamGrid(64, 64))
	for _, tc := range denseRunAllocs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			entry, ok := harness.LookupProtocol(tc.name)
			if !ok {
				t.Fatalf("no catalog entry %s", tc.name)
			}
			st := entry.Build(g, 0, harness.StackOpts{}) // Workers 0: one partition
			if _, ok, _ := st.RunFrom(nil, nil, 7, 1<<20); !ok {
				t.Fatalf("%s run incomplete", tc.name)
			}
			allocs := testing.AllocsPerRun(3, func() { st.RunFrom(nil, nil, 7, 1<<20) })
			if allocs > tc.max {
				t.Fatalf("one sequential %s run allocates %.0f objects, pinned at most %.0f", tc.name, allocs, tc.max)
			}
		})
	}
}

// sparseRunAllocs pins the objects of one reused run of each sparse
// (per-node engine) catalog entry, read by testing.AllocsPerRun after a
// warm-up run on the same context: one object per reseeded RNG stream
// (rng.Source.Seed), plus the RLNC decoding of k-known and the GST
// builds' boundary, assignment and recruiting state of the ring
// pipelines, none of it per round. Every run reseeds and replays the
// same draws, so the pins have no tolerance: one new object per run
// fails here. They read exactly these counts with go1.24 on
// linux/amd64; like denseRunAllocs they are ceilings, so a toolchain
// that allocates less passes.
var sparseRunAllocs = []struct {
	name string
	max  float64
}{
	{"decay", 24},
	{"cr", 24},
	{"gst", 24},
	{"k-known", 145},
	{"cd", 705},
	{"k-cd", 716},
}

// TestSparseRunAllocs runs every sparse catalog entry over a 4x6
// cluster chain from node 0 on the ideal channel (k = 3 for the
// k-message entries), after a warm-up run on the same context, and
// pins one reused run's allocations.
func TestSparseRunAllocs(t *testing.T) {
	g := graph.ClusterChain(4, 6)
	for _, tc := range sparseRunAllocs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			entry, ok := harness.LookupProtocol(tc.name)
			if !ok {
				t.Fatalf("no catalog entry %s", tc.name)
			}
			st := entry.Build(g, 0, harness.StackOpts{K: 3})
			if _, ok, _ := st.RunFrom(nil, nil, 7, 0); !ok {
				t.Fatalf("%s run incomplete", tc.name)
			}
			allocs := testing.AllocsPerRun(3, func() { st.RunFrom(nil, nil, 7, 0) })
			if allocs > tc.max {
				t.Fatalf("one reused %s run allocates %.0f objects, pinned at most %.0f", tc.name, allocs, tc.max)
			}
		})
	}
}

// denseScaleMemBudget caps the live-heap growth of a full n = 10^5
// dense GNP cell: streaming CSR graph (~16n int32 edge entries), the
// engine's word bitsets and stamp arrays, and the SoA protocol state.
// Decay measured ~9 MB (CR and the wave carry the same per-node
// footprint: bitsets + one int32/int64 array); the 16 MB budget leaves
// headroom while still failing loudly if anyone reintroduces per-node
// objects (the AoS stack costs >100 bytes/node before protocol state).
const denseScaleMemBudget = 16 << 20

// TestDenseScaleMemoryBudget pins the bytes/node story at n = 10^5 for
// every protocol of the dense catalog: building and running the stack
// must fit the budget.
func TestDenseScaleMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-node runs")
	}
	const n = 100_000
	for _, proto := range []string{"decay", "cr", "wave"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			runtime.GC()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)

			g := graph.BuildConnected(graph.StreamGNP(n, 16.0/n, 0xe19), 0xe19)
			cfg := radio.Config{Workers: 4}
			var pr radio.DenseProtocol
			var done func() bool
			switch proto {
			case "cr":
				p := cr.NewDense(g, cr.NewParams(g.N(), graph.Eccentricity(g, 0)), 7, 0)
				pr, done = p, p.Done
			case "wave":
				cfg.CollisionDetection = true
				w := beep.NewDenseWave(g, 0, int64(graph.Eccentricity(g, 0)))
				pr, done = w, w.Done
			default:
				p := decay.NewDense(g, 7, 0)
				pr, done = p, p.Done
			}
			eng := radio.NewDense(g, cfg, pr)
			defer eng.Close()
			rounds, ok := eng.RunUntil(1<<20, done)
			if !ok {
				t.Fatalf("dense %s GNP-%d run incomplete after %d rounds", proto, n, rounds)
			}

			runtime.GC()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			t.Logf("%s n=%d: %d rounds, live-heap growth %.1f MB (%.0f bytes/node)",
				proto, n, rounds, float64(grew)/(1<<20), float64(grew)/n)
			if grew > denseScaleMemBudget {
				t.Fatalf("dense %s stack grew live heap by %d bytes, budget %d", proto, grew, denseScaleMemBudget)
			}
		})
	}
}

// adaptiveWrapperAllocOverhead is the allocation headroom the retry
// layer may add on top of a bare Reset-reused run: the epoch loop's
// bookkeeping (outcome accumulation, carryover harvest into a
// preallocated slice) plus a little toolchain slack. Anything per
// round or per node-round would blow through it immediately.
const adaptiveWrapperAllocOverhead = 64

// TestAdaptiveWrapperAllocOverhead pins the retry layer's steady-state
// contract: a single-epoch adaptive run on a reused context allocates
// at most a small constant more than the bare reused run. The epochs
// themselves ride the PR-3 zero-rebuild path, so the wrapper must not
// reintroduce per-round allocation.
func TestAdaptiveWrapperAllocOverhead(t *testing.T) {
	g := graph.ClusterChain(4, 6)
	decayEntry, _ := harness.LookupProtocol("decay")
	plainRun := decayEntry.Build(g, 0, harness.StackOpts{})
	plainRun.RunFrom(nil, nil, 3, 1<<20) // warm both paths' scratch
	plain := testing.AllocsPerRun(5, func() { plainRun.RunFrom(nil, nil, 3, 1<<20) })

	ar := decayEntry.NewAdaptive(g, 0, harness.StackOpts{}, nil, 3)
	adapt.Run(ar, adapt.Policy{})
	adaptive := testing.AllocsPerRun(5, func() { adapt.Run(ar, adapt.Policy{}) })
	if adaptive > plain+adaptiveWrapperAllocOverhead {
		t.Fatalf("adaptive wrapper allocates %.0f objects/run vs %.0f bare (+%d budget)",
			adaptive, plain, adaptiveWrapperAllocOverhead)
	}
}

// streamBuildAllocs caps the objects of one
// BuildConnected(StreamGNP(1e5, 16/n)) under a fixed name, read by
// testing.AllocsPerRun: the assembly state and its two degree arrays,
// the kept-endpoint chunks, the pipe, its two channels and its batch
// storage (which the walk reuses for its cursors), the producer's
// closure and the method value the stream emits through, the stream's
// RNG, the CSR's edges, the high half's closure and result channel, the
// sweep's bitset and queue, the Graph, and the stream boxed twice (the
// generator in the wrapper, the wrapper as an EdgeStream). The producer
// and walk goroutines reuse the descriptors of the warm-up's dead ones.
// It reads exactly 24 with go1.24 on linux/amd64; it is a ceiling, so a
// toolchain that allocates less passes, and only a new object fails.
const streamBuildAllocs = 24

// fixedNameStream hides a stream's Name behind a constant, so that the
// pin counts what FromStream and BuildConnected allocate and not what
// fmt does to format a generator's name.
type fixedNameStream struct{ graph.EdgeStream }

func (fixedNameStream) Name() string { return "gnp" }

// TestStreamBuildAllocs pins the allocations of the streaming G(n,p)
// build of every E19 cell: a new object per build shows here, where
// BenchmarkEngine_StreamCSR_GNP100k at -benchtime 3x reads a spread.
func TestStreamBuildAllocs(t *testing.T) {
	const n = 100_000
	build := func() {
		graph.BuildConnected(fixedNameStream{graph.StreamGNP(n, 16.0/n, 0xe19)}, 0xe19)
	}
	build() // warm: the producer and walk goroutines exist to be reused
	if allocs := testing.AllocsPerRun(5, build); allocs > streamBuildAllocs {
		t.Fatalf("BuildConnected(StreamGNP(1e5, 16/n)) allocates %.0f objects, want at most %d", allocs, streamBuildAllocs)
	}
}

// theorem13ReuseAllocBudget is the per-run allocation ceiling for a
// Reset-reused Theorem 1.3 run on grid-4x12/k=8. The measured
// steady-state cost is ~1.5k objects (per-boundary assign/recruit
// machines built mid-run, per-epoch RNG reseeds); the budget leaves
// headroom for toolchain drift while still failing loudly if per-round
// or per-packet allocation creeps back in (the construct-per-run cost
// this layer replaced was ~33k, and even one allocation per round
// would add ~95k).
const theorem13ReuseAllocBudget = 4000

// TestTheorem13ResetReuseAllocBudget pins the Reset-reuse contract on
// the heaviest stack: after a warm-up run, each reused run must stay
// under the fixed budget, with round counts identical to fresh runs.
func TestTheorem13ResetReuseAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full Theorem 1.3 runs are slow")
	}
	g := graph.Grid(4, 12)
	kcd, _ := harness.LookupProtocol("k-cd")
	run := kcd.Build(g, 0, harness.StackOpts{K: 8})
	wantRounds, wantOK, _ := kcd.Build(g, 0, harness.StackOpts{K: 8}).RunFrom(nil, nil, 3, 0)
	if !wantOK {
		t.Fatal("fresh reference run incomplete")
	}
	var rounds int64
	var ok bool
	allocs := testing.AllocsPerRun(2, func() {
		rounds, ok, _ = run.RunFrom(nil, nil, 3, 0)
	})
	if !ok || rounds != wantRounds {
		t.Fatalf("reused run diverged: rounds=%d ok=%v, fresh rounds=%d", rounds, ok, wantRounds)
	}
	if allocs > theorem13ReuseAllocBudget {
		t.Fatalf("Reset-reused Theorem 1.3 run allocates %.0f objects, budget %d",
			allocs, theorem13ReuseAllocBudget)
	}
}
