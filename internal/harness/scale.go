package harness

// E19-E21: the million-node scale sweeps (E22, the geometric one, is
// in geoscale.go). Every cell drives the dense engine (radio.Dense —
// structure-of-arrays node state, bitset frontiers) over a
// streaming-generated CSR workload (graph.FromStream /
// graph.BuildConnected: the edge stream lands directly in the final
// arrays, with no edge list kept), optionally with the deterministic
// intra-run parallel delivery pass (radio.Config.Workers —
// byte-identical output at any worker count, so the tables below are
// CI-comparable across worker settings).
//
// E19 sweeps the dense protocol catalog — decay.Dense on the plain
// Decay and CR FastDecay schedules, and beep.DenseWave — on the ideal
// channel up to n = 10^6. E20 reruns the catalog on the gnp workload
// under per-link erasure across a loss grid (erasure is a link-only
// channel, so the engine stays on its ideal collect/deliver path with
// the loss applied while counting). E21 runs the
// structured GST broadcast (mmv.Dense over gst.Flat) through the same
// workload grid, with and without jamming by uninformed members — the
// steady-state regime of the paper's amortized argument, where the
// tree is built once and every broadcast rides the fixed MMV schedule.
// E19, E21 and E22 are rows of one table (scaleSweep), compiled by one
// plan method; E20's (loss, protocol, n) grid keeps its own plan. All
// four share one cell body, runDenseCell. A row names only what belongs
// to its workloads (generator, size caps, diameter shape, cost weight):
// a cell's scheduler cost is its dense table entry's round estimate
// (Protocol.Rounds) at the workload's diameter shape.
//
// The rendered tables hold only reproducible outputs (rounds,
// completion, coverage). The capacity metrics — live-heap growth of
// graph + engine + protocol state, process peak RSS, and per-cell wall
// time for rounds/sec — ride the JSON artifact (mem_bytes,
// peak_rss_bytes, wall_us per cell; radiobench -json, the CI
// BENCH_scale.json artifact) and are zeroed by exp.Artifact.Canonical.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"radiocast/internal/channel"
	"radiocast/internal/exp"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
	"radiocast/internal/sched"
	"radiocast/internal/stats"
)

// ScaleConfig parameterizes the E19-E22 scale sweeps. The zero value
// (DefaultScaleConfig) is the CI/test shape; cmd/radiobench builds one
// from -scalemaxn/-scaleworkers and threads it through AllWithScale —
// no package-level mutation.
type ScaleConfig struct {
	// MaxN caps the sweeps' largest workload size; 0 resolves to 10^5
	// (the CI shape). The acceptance run raises it to 10^6.
	MaxN int
	// Workers is the dense engine's worker count for every cell; 0
	// resolves to min(8, GOMAXPROCS). Results are byte-identical at any
	// setting.
	Workers int
}

// DefaultScaleConfig is the CI/test sweep shape: n up to 10^5,
// auto-sized workers.
func DefaultScaleConfig() ScaleConfig { return ScaleConfig{} }

func (sc ScaleConfig) maxN() int {
	if sc.MaxN > 0 {
		return sc.MaxN
	}
	return 100_000
}

func (sc ScaleConfig) workers() int {
	if sc.Workers > 0 {
		return sc.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	return w
}

// e19Seed keys the GNP workload's edge stream; fixed so every cell of
// a sweep measures the same graph.
const e19Seed = 0xe19

// e19PathCap bounds the path workload: a 10^6-node path needs ~10^7
// Decay rounds (D log n), which is a different experiment. The other
// workloads have sublinear diameter and scale to 10^6.
const e19PathCap = 10_000

// e19Graph builds one workload at size ~n through the streaming
// generators. Actual node counts are the generator's (grid and cluster
// round n to their factor shapes). The workloads are seed-independent
// and channel-free.
func e19Graph(workload string, n int, _ uint64) (*graph.Graph, radio.Channel) {
	switch workload {
	case "path":
		return graph.FromStream(graph.StreamPath(n)), nil
	case "grid":
		side := int(math.Sqrt(float64(n)))
		return graph.FromStream(graph.StreamGrid(side, side)), nil
	case "gnp":
		return graph.BuildConnected(graph.StreamGNP(n, 16/float64(n), e19Seed), e19Seed), nil
	default: // "cluster"
		size := int(math.Sqrt(float64(n)))
		return graph.FromStream(graph.StreamClusterChain(n/size, size)), nil
	}
}

// e19Diameter is a workload's diameter shape at size ~n, the d a
// cell's cost reads from the table's estimate before any graph exists:
// n for the path, 2√n for the grid and the cluster chain, log n for gnp
// (p = 16/n).
func e19Diameter(workload string, n int) int {
	switch workload {
	case "path":
		return n
	case "grid", "cluster":
		return 2 * int(math.Sqrt(float64(n)))
	}
	return sched.LogN(n)
}

// denseCost is the longest-first scheduler weight of a scale cell
// running proto's dense table entry on an n-node workload of diameter
// shape d: n nodes over the entry's estimate.
func denseCost(proto string, n, d int) int64 {
	return budgetCost(n, mustProtocol("dense-"+proto).Rounds(n, d, StackOpts{}))
}

// peakRSSBytes reads the process high-water resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSBytes() int64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// liveHeap returns the collected live-heap size.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// runDenseCell is the one cell body of every scale sweep: build the
// workload (graph and optional channel), build the dense table entry
// for proto from node 0, run it, and return the result plus the
// covered-node fraction. The heap mark is taken before build, so the
// delta brackets everything the cell allocates and keeps live: CSR
// graph, engine buffers, SoA protocol state. Concurrent cells can
// perturb it — it is a capacity figure, not a reproducible output.
// The wave's horizon is the source eccentricity on the ideal channel
// and 4x eccentricity plus slack under a lossy one; noise turns on the
// GST broadcast's jamming adversary.
func runDenseCell(build func() (*graph.Graph, radio.Channel), proto string, noise bool, seed uint64,
	workers int, limit int64) (exp.Result, float64) {
	before := liveHeap()
	g, ch := build()
	s := mustProtocol("dense-"+proto).Build(g, 0, StackOpts{Noise: noise, LossyHorizon: ch != nil}).(*denseStack)
	s.SetWorkers(workers)
	var after int64
	s.afterRun = func() { after = liveHeap() }
	rounds, ok, st := s.RunFrom(nil, ch, seed, limit)
	res := exp.Rounds(rounds, ok)
	res.Value = float64(st.Deliveries)
	res.BusyRounds = st.BusyRounds
	res.SilentRounds = st.SilentRounds
	res.MaxFrontier = st.MaxFrontier
	if d := after - before; d > 0 {
		res.MemBytes = d
	}
	res.PeakRSS = peakRSSBytes()
	return res, float64(s.Coverage()) / float64(g.N())
}

// scaleSweep is one row of the scale-sweep table: a (workload, n) grid
// with one dense broadcast per (column, workload, n, seed) cell, and a
// table of per-column mean completion rounds. E19, E21 and E22 are
// rows; E20's (loss, protocol, n) grid has its own plan.
type scaleSweep struct {
	id, title string // plan id and experiment title
	// table and comment head the rendered table. The worker count stays
	// out of both: the table must be byte-identical at any
	// -scaleworkers setting (CI compares the sweeps with cmp).
	table, comment string
	workloads      []string
	caps           map[string]int // per-workload size cap; absent = sc.MaxN only
	cols           []scaleCol
	build          func(workload string, n int, seed uint64) (*graph.Graph, radio.Channel)
	// diameter is a workload's diameter shape at size n (see
	// e19Diameter), and weight multiplies a workload's cell costs
	// (absent = 1): both feed the scheduler only.
	diameter func(workload string, n int) int
	weight   map[string]int64
}

// scaleCol is one table column: a dense table entry, optionally under
// the GST broadcast's jamming adversary.
type scaleCol struct {
	name, proto string
	noise       bool
}

// denseCols is the dense SoA catalog as columns: decay/cr/wave, quiet.
var denseCols = []scaleCol{{"decay", "decay", false}, {"cr", "cr", false}, {"wave", "wave", false}}

// plan compiles the sweep: n = 10^3 .. sc.MaxN (10^3 .. 10^4 quick),
// each workload up to its cap.
func (sw scaleSweep) plan(sc ScaleConfig, seeds int, quick bool) *exp.Plan {
	sizes := []int{1_000, 10_000, 100_000, 1_000_000}
	if quick {
		sizes = []int{1_000, 10_000}
	}
	maxN := sc.maxN()
	workers := sc.workers()
	p := exp.NewGrid(sw.id, sw.title, seeds)
	type cfg struct {
		workload string
		n        int
	}
	var cfgs []cfg
	for _, n := range sizes {
		if n > maxN {
			continue
		}
		for _, w := range sw.workloads {
			if limit, ok := sw.caps[w]; ok && n > limit {
				continue
			}
			cfgs = append(cfgs, cfg{w, n})
		}
	}
	config := func(col string, c cfg) string { return fmt.Sprintf("%s/%s/n=%d", col, c.workload, c.n) }
	for _, c := range cfgs {
		for _, col := range sw.cols {
			cost := max(sw.weight[c.workload], 1) * denseCost(col.proto, c.n, sw.diameter(c.workload, c.n))
			p.Add(config(col.name, c), broadcastLimit, cost,
				func(seed uint64, limit int64) exp.Result {
					build := func() (*graph.Graph, radio.Channel) { return sw.build(c.workload, c.n, seed) }
					res, _ := runDenseCell(build, col.proto, col.noise, seed, workers, limit)
					return res
				})
		}
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{Title: sw.table, Comment: sw.comment, Header: []string{"workload", "n", "ok"}}
		for _, col := range sw.cols {
			t.Header = append(t.Header, col.name)
		}
		for _, c := range cfgs {
			var all exp.Runs
			row := []string{c.workload, fmt.Sprintf("%d", c.n), ""}
			for _, col := range sw.cols {
				runs := p.Runs(results, config(col.name, c))
				all = append(all, runs...)
				row = append(row, stats.F(exp.MeanOrDash(runs.Rounds())))
			}
			row[2] = all.OK()
			t.AddRow(row...)
		}
		return t
	}
	return p.Plan
}

// experiment binds the sweep to sc as one entry of AllWithScale.
func (sw scaleSweep) experiment(sc ScaleConfig) Experiment {
	return Experiment{sw.id, sw.title, func(seeds int, quick bool) *exp.Plan { return sw.plan(sc, seeds, quick) }}
}

// e19Sweep is the ideal-channel scale sweep: one dense broadcast per
// (protocol, workload, n, seed) over the full SoA catalog, path capped
// at 10^4.
var e19Sweep = scaleSweep{
	id:    "E19",
	title: "Million-node engine: dense-engine scale sweep (SoA decay/cr/wave)",
	table: "E19: dense-engine scale sweep (SoA decay/cr/wave, streaming CSR)",
	comment: "one dense broadcast per (protocol, workload, n) cell; per-protocol mean completion rounds,\n" +
		"byte-identical at any worker count (the deterministic parallel delivery pass); bytes/node, peak\n" +
		"RSS, and rounds/sec ride the JSON artifact only (mem_bytes, peak_rss_bytes, wall_us)",
	workloads: []string{"path", "grid", "gnp", "cluster"},
	caps:      map[string]int{"path": e19PathCap},
	cols:      denseCols,
	build:     e19Graph,
	diameter:  e19Diameter,
}

// E19Plan is the ideal-channel scale sweep over e19Sweep.
func E19Plan(sc ScaleConfig, seeds int, quick bool) *exp.Plan { return e19Sweep.plan(sc, seeds, quick) }

// e20Rates is the erasure loss grid of E20.
var e20Rates = []float64{0.05, 0.1, 0.2, 0.3}

// E20Plan is the channel-adverse scale sweep: the dense catalog on the
// gnp workload under per-link erasure, n = 10^4 .. sc.MaxN. Erasure is
// link-only (radio.LinkOnlyChannel): it acts only through DropLink, so
// the engine keeps its O(frontier + deliveries) collect/deliver
// path and skips the O(n)-per-round listener sweep that an
// observation-rewriting channel needs. Decay and CR retry until
// coverage; the wave runs a single lossy pass inside its slacked
// horizon, so its coverage (Value) may be < 1 at high loss — exactly
// the fragility E13 measures at small n.
func E20Plan(sc ScaleConfig, seeds int, quick bool) *exp.Plan {
	sizes := []int{10_000, 100_000, 1_000_000}
	if quick {
		sizes = []int{10_000}
	}
	maxN := sc.maxN()
	workers := sc.workers()
	p := exp.NewGrid("E20", "Million-node robustness: dense-engine erasure sweep (gnp)", seeds)
	type cfg struct {
		rate  float64
		proto string
		n     int
	}
	var cfgs []cfg
	for _, rate := range e20Rates {
		for _, col := range denseCols {
			for _, n := range sizes {
				if n > maxN {
					continue
				}
				cfgs = append(cfgs, cfg{rate, col.proto, n})
			}
		}
	}
	config := func(c cfg) string { return fmt.Sprintf("loss=%g/%s/n=%d", c.rate, c.proto, c.n) }
	for _, c := range cfgs {
		// An erasure cell costs about what the ideal E19 gnp cell of
		// its protocol and n does: the median wall-time ratio over the
		// 24 cells of `radiobench -only E19,E20 -seeds 1 -scalemaxn
		// 100000` is 1.1, since link-only erasure rides the ideal path.
		p.Add(config(c), broadcastLimit, denseCost(c.proto, c.n, e19Diameter("gnp", c.n)), func(seed uint64, limit int64) exp.Result {
			build := func() (*graph.Graph, radio.Channel) {
				g, _ := e19Graph("gnp", c.n, seed)
				return g, channel.NewErasure(c.rate, rng.Mix(seed, 0xe20))
			}
			res, coverage := runDenseCell(build, c.proto, false, seed, workers, limit)
			res.Value = coverage
			return res
		})
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "E20: dense-engine erasure sweep (gnp, streaming CSR)",
			Comment: "per-link erasure is link-only: links drop on the engine's ideal collect/deliver path, no listener sweep;\n" +
				"decay/cr retry to full coverage, the wave gets one lossy pass in a 4x-eccentricity horizon;\n" +
				"rounds and coverage are byte-identical at any worker count",
			Header: []string{"loss", "protocol", "n", "ok", "rounds", "coverage"},
		}
		for _, c := range cfgs {
			runs := p.Runs(results, config(c))
			t.AddRow(fmt.Sprintf("%g", c.rate), c.proto, fmt.Sprintf("%d", c.n), runs.OK(),
				stats.F(exp.MeanOrDash(runs.Rounds())), stats.F(exp.MeanOrDash(runs.Values())))
		}
		return t
	}
	return p.Plan
}

// e21Sweep is the structured-broadcast scale sweep: mmv.Dense over
// flat GST arrays (built once per cell by gst.Construct +
// gst.Flatten) on the E19 workload grid, quiet and with every
// uninformed member jamming its slow slots (Lemma 3.3's noise regime).
// Completion rides the fixed MMV schedule only — no retries, no
// topology knowledge beyond the tree — so the rounds columns are the
// steady-state per-message cost of the paper's amortized regime.
var e21Sweep = scaleSweep{
	id:    "E21",
	title: "Million-node structured broadcast: dense GST sweep (flat tree + MMV schedule)",
	table: "E21: dense GST broadcast scale sweep (flat tree + MMV schedule)",
	comment: "one structured broadcast per (mode, workload, n) cell: gst.Construct + gst.Flatten once, then\n" +
		"mmv.Dense on the fixed MMV schedule; gst-noise adds slow-slot jamming by every uninformed member;\n" +
		"byte-identical at any worker count; bytes/node, peak RSS, and rounds/sec ride the JSON artifact",
	workloads: e19Sweep.workloads,
	caps:      e19Sweep.caps,
	cols:      []scaleCol{{"gst", "gst", false}, {"gst-noise", "gst", true}},
	build:     e19Graph,
	diameter:  e19Diameter,
}

// E21Plan is the structured-broadcast scale sweep over e21Sweep.
func E21Plan(sc ScaleConfig, seeds int, quick bool) *exp.Plan { return e21Sweep.plan(sc, seeds, quick) }
