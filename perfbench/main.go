// Command perfbench is the repository benchmark. It composes the
// library layers itself (internal/graph, internal/gst, the dense
// protocol stacks, internal/channel, the internal/radio dense engine)
// and drives cmd/radiocastd over its HTTP API, timing each broadcast
// from outside and checking its output. Run it from the repository
// root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload sweep-gst --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. map.json records
// what each workload exercises and which end-to-end metric each
// per-layer metric should move. With --trace 1 the spans are written
// to .bench_build/trace/<workload>-<seed>.jsonl.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// pinnedSeed is the workload seed whose op outputs are pinned in
// pinned.json; other seeds are checked against invariants.
const pinnedSeed = 1

// setupRepeats is how many times a run sets its workload up;
// setup_s is the median.
const setupRepeats = 3

// timeWindows is the number of equal time windows an in-process run is
// split into; its time metrics come from the faster half (fastHalf).
const timeWindows = 4

//go:embed pinned.json
var pinnedJSON []byte

// pinnedFile is the format of pinned.json: op key → output.
type pinnedFile struct {
	Seed uint64            `json:"seed"`
	Ops  map[string]output `json:"ops"`
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizes    sizes
	root     string // repository root, for building radiocastd
	out      string // scratch directory for builds and traces
	pinned   map[string]output
}

var workloads = []string{"sweep-gst", "sweep-gnp", "adverse-gnp", "daemon-dense"}

func main() {
	var (
		workload = flag.String("workload", "", "workload: sweep-gst, sweep-gnp, adverse-gnp or daemon-dense")
		seed     = flag.Uint64("seed", pinnedSeed, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		pin      = flag.String("pin", "", "regenerate the pinned outputs of seed 1 into this file and exit")
	)
	flag.Parse()
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sizes: fullSizes, root: ".", out: ".bench_build"}
	if *pin != "" {
		if err := writePinned(cfg, *pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seed == pinnedSeed {
		var pf pinnedFile
		if err := json.Unmarshal(pinnedJSON, &pf); err != nil || pf.Seed != pinnedSeed {
			fmt.Fprintln(os.Stderr, "perfbench: bad pinned.json")
			os.Exit(1)
		}
		cfg.pinned = pf.Ops
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload sets up, measures and reports one workload. GOMAXPROCS
// is pinned so a larger host measures the same configuration.
func runWorkload(cfg config) (*report, error) {
	runtime.GOMAXPROCS(engineWorkers)
	if cfg.workload == "daemon-dense" {
		return runDaemon(cfg)
	}
	kinds, setup, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	t := newTracer(false)
	samples, err := measure(cfg, kinds, t)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := t.write(tracePath(cfg)); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return summarize(cfg, kinds, samples, setup), nil
}

func tracePath(cfg config) string {
	return filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
}

// setUp builds a workload's op kinds setupRepeats times and returns
// the last build with the median set-up time. The sweeps build
// everything inside their ops, so their set-up is one warm-up pass at
// a quarter of the node count, which lets lazy runtime set-up finish
// before timing; adverse-gnp builds its graph here.
func setUp(cfg config) ([]opKind, float64, error) {
	var kinds []opKind
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		switch cfg.workload {
		case "sweep-gst", "sweep-gnp":
			warm := sizes{gstSide: cfg.sizes.gstSide / 2, gnpN: cfg.sizes.gnpN / 4}
			for _, k := range sweepKinds(cfg.workload, warm, cfg.seed) {
				k.run(newTracer(false), 0)
			}
			kinds = sweepKinds(cfg.workload, cfg.sizes, cfg.seed)
		case "adverse-gnp":
			g, ecc := adverseGraph(cfg.sizes, cfg.seed)
			kinds = adverseGNP(g, ecc, cfg.seed)
		default:
			return nil, 0, fmt.Errorf("unknown workload %q (one of %v)", cfg.workload, workloads)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return kinds, median(times), nil
}

func sweepKinds(workload string, sz sizes, seed uint64) []opKind {
	if workload == "sweep-gst" {
		return sweepGST(sz, seed)
	}
	return sweepGNP(sz, seed)
}

// sample is one measured op.
type sample struct {
	kind   int
	pass   int
	window int // time window the op's pass started in
	traced bool
	wall   time.Duration
	cpu    time.Duration
	peakKB int64
	heap   int64 // live-heap growth held by the op
	run    opRun
	ok     bool
}

// measure runs whole passes over the op kinds until cfg.seconds have
// passed; pass p runs input variant p mod variants. A traced run runs
// each variant twice, untraced then traced, which gives the tracing
// overhead and lets each traced output be compared with its untraced
// twin. Garbage collection and the high-water reset happen between
// ops, outside every timed window.
func measure(cfg config, kinds []opKind, t *tracer) ([]sample, error) {
	var samples []sample
	untraced := make([]output, len(kinds))
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		if pass >= minPasses && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		traced := cfg.trace && pass%2 == 1
		window := min(int(time.Since(start).Seconds()/cfg.seconds*timeWindows), timeWindows-1)
		variant := pass % variants
		if cfg.trace {
			variant = pass / 2 % variants
		}
		for i, k := range kinds {
			base, err := quiesce()
			if err != nil {
				return nil, fmt.Errorf("reset peak RSS: %w", err)
			}
			t.on = traced
			t.op = len(samples)
			c0 := cpuSelf()
			t0 := time.Now()
			var r opRun
			if traced {
				root := t.begin(k.name)
				r = k.run(t, variant)
				t.end(root)
			} else {
				r = k.run(t, variant)
			}
			wall := time.Since(t0)
			cpu := cpuSelf() - c0
			peak, err := statusKB(os.Getpid(), "VmHWM")
			if err != nil {
				return nil, err
			}
			heap := int64(liveHeap()) - int64(base)
			runtime.KeepAlive(r.keep)
			r.keep = nil // the sample must not hold the op's graph
			ok := checkOutput(cfg, opKey(cfg.workload, k.name, variant), k, r)
			if !traced {
				untraced[i] = r.out
			} else if untraced[i] != r.out {
				ok = false // measurement changed the result
			}
			samples = append(samples, sample{kind: i, pass: pass, window: window, traced: traced, wall: wall, cpu: cpu,
				peakKB: peak, heap: heap, run: r, ok: ok})
		}
	}
	return samples, nil
}

// opKey names one op of one variant in pinned.json.
func opKey(workload, kind string, variant int) string {
	return fmt.Sprintf("%s/%s/v%d", workload, kind, variant)
}

// checkOutput compares an op's output with its pinned value, or, for
// other seeds, checks the invariants: the broadcast completed and
// covered every node, except the wave on a lossy channel, which may
// stop at its horizon short of full coverage.
func checkOutput(cfg config, key string, k opKind, r opRun) bool {
	if cfg.pinned != nil {
		want, ok := cfg.pinned[key]
		return ok && want == r.out
	}
	if k.lossy {
		return r.out.Covered >= 1 && r.out.Covered <= r.n
	}
	return r.out.Completed && r.out.Covered == r.n
}

// summarize turns the samples into the report for the run's mode.
func summarize(cfg config, kinds []opKind, samples []sample, setup float64) *report {
	rep := &report{Metrics: map[string]metric{}}
	var plain, traced []sample
	for _, s := range samples {
		rep.Attempted++
		if !s.ok {
			rep.Failed++
		}
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	rep.Correct = rep.Failed == 0
	if cfg.trace {
		layerMetrics(rep.Metrics, kinds, traced, opsPerSec(plain))
	} else {
		endToEnd(rep.Metrics, kinds, plain, setup)
	}
	return rep
}

func opsPerSec(ss []sample) float64 {
	var total time.Duration
	for _, s := range ss {
		total += s.wall
	}
	return float64(len(ss)) / total.Seconds()
}

// fastHalf keeps the samples of the faster half of the run's time
// windows, ranked by ops per second. Windows hold whole passes, so the
// op mix stays balanced. Host CPU steal on a small VM comes in bursts
// of several seconds: a burst over less than half the run leaves the
// time metrics unchanged, while a slower program slows every window.
func fastHalf(ss []sample) []sample {
	byWindow := map[int][]sample{}
	var windows []int
	for _, s := range ss {
		if byWindow[s.window] == nil {
			windows = append(windows, s.window)
		}
		byWindow[s.window] = append(byWindow[s.window], s)
	}
	sort.Slice(windows, func(i, j int) bool {
		return opsPerSec(byWindow[windows[i]]) > opsPerSec(byWindow[windows[j]])
	})
	var kept []sample
	for _, w := range windows[:(len(windows)+1)/2] {
		kept = append(kept, byWindow[w]...)
	}
	return kept
}

// endToEnd fills the end-to-end metrics of an in-process workload:
// times over the faster half of the run's windows, memory over all ops.
func endToEnd(m map[string]metric, kinds []opKind, ss []sample, setup float64) {
	fast := fastHalf(ss)
	var ms []float64
	var cpu time.Duration
	byKind := make([][]float64, len(kinds))
	for _, s := range fast {
		ms = append(ms, float64(s.wall)/1e6)
		byKind[s.kind] = append(byKind[s.kind], float64(s.wall)/1e6)
		cpu += s.cpu
	}
	var heap, nodes int64
	peaks := make([][]float64, len(kinds))
	for _, s := range ss {
		heap += s.heap
		nodes += int64(s.run.n)
		peaks[s.kind] = append(peaks[s.kind], float64(s.peakKB)/1024)
	}
	// The heaviest op kind's typical peak: a median per kind, then the
	// largest of those.
	peak := 0.0
	for _, p := range peaks {
		if len(p) > 0 {
			peak = math.Max(peak, median(p))
		}
	}
	m["ops_per_s"] = metric{opsPerSec(fast), "1/s"}
	m["op_ms_p50"] = metric{kindMedian(byKind), "ms"}
	m["op_ms_p90"] = metric{quantile(ms, 0.9), "ms"}
	m["cpu_s_per_op"] = metric{cpu.Seconds() / float64(len(fast)), "s"}
	m["peak_rss_mb"] = metric{peak, "MB"}
	m["bytes_per_node"] = metric{float64(heap) / float64(nodes), "B"}
	m["setup_s"] = metric{setup, "s"}
}

// layerMetrics fills the per-layer metrics from the traced samples.
// Times are means per op over every traced op, in ms. Work counters
// are means per op over the first traced pass, whose inputs are the
// same in every run of a seed, so they repeat exactly.
func layerMetrics(m map[string]metric, kinds []opKind, ss []sample, plainOpsPerSec float64) {
	zeroLayerMetrics(m)
	n := float64(len(ss))
	var sum struct {
		build, bfs, construct, flatten, pnew, collect, deliver, endRound float64
		rnew, loop, rself, chanNs, edges, rounds, visits, accounted      float64
	}
	stackNs := map[string]float64{}
	stackOps := map[string]float64{}
	for _, s := range ss {
		ns := s.run.ns
		sum.build += float64(ns.graphBuild)
		sum.bfs += float64(ns.graphBFS)
		sum.construct += float64(ns.gstConstruct)
		sum.flatten += float64(ns.gstFlatten)
		sum.pnew += float64(ns.protoNew)
		sum.collect += float64(ns.calls.collect)
		sum.deliver += float64(ns.calls.deliver)
		sum.endRound += float64(ns.calls.endRound)
		sum.rnew += float64(ns.radioNew)
		sum.loop += float64(ns.radioLoop)
		self := ns.radioLoop - ns.calls.collect - ns.calls.deliver - ns.calls.endRound - ns.calls.channel
		sum.rself += float64(max(self, 0))
		sum.chanNs += float64(ns.calls.channel + ns.channelNew)
		sum.edges += float64(s.run.edges)
		sum.rounds += float64(s.run.stats.Rounds)
		sum.visits += float64(s.run.c.EdgeVisits)
		layers := ns.graphBuild + ns.graphBFS + ns.gstConstruct + ns.gstFlatten + ns.protoNew +
			ns.channelNew + ns.radioNew + ns.radioLoop
		sum.accounted += float64(layers) / float64(s.wall)
		stack := kinds[s.kind].stack
		stackNs[stack] += float64(ns.protoNew + ns.calls.collect + ns.calls.deliver + ns.calls.endRound)
		stackOps[stack]++
	}
	ms := func(v float64) float64 { return v / n / 1e6 }
	m["graph.build_ms"] = metric{ms(sum.build), "ms"}
	m["graph.ns_per_edge"] = metric{ratio(sum.build, sum.edges), "ns"}
	m["graph.bfs_ms"] = metric{ms(sum.bfs), "ms"}
	m["gst.construct_ms"] = metric{ms(sum.construct), "ms"}
	m["gst.flatten_ms"] = metric{ms(sum.flatten), "ms"}
	m["proto.new_ms"] = metric{ms(sum.pnew), "ms"}
	m["proto.collect_ms"] = metric{ms(sum.collect), "ms"}
	m["proto.deliver_ms"] = metric{ms(sum.deliver), "ms"}
	m["proto.endround_ms"] = metric{ms(sum.endRound), "ms"}
	for stack, v := range stackNs {
		m["proto."+stack+".ms"] = metric{v / stackOps[stack] / 1e6, "ms"}
	}
	m["radio.new_ms"] = metric{ms(sum.rnew), "ms"}
	m["radio.loop_ms"] = metric{ms(sum.loop), "ms"}
	m["radio.self_ms"] = metric{ms(sum.rself), "ms"}
	m["radio.rounds_per_s"] = metric{ratio(sum.rounds, sum.loop/1e9), "1/s"}
	m["radio.ns_per_edge_visit"] = metric{ratio(sum.loop, sum.visits), "ns"}
	m["channel.ms"] = metric{ms(sum.chanNs), "ms"}
	tracedOps := opsPerSec(ss)
	m["trace.ops_per_s"] = metric{tracedOps, "1/s"}
	m["trace.overhead_frac"] = metric{plainOpsPerSec/tracedOps - 1, "ratio"}
	m["trace.accounted_frac"] = metric{sum.accounted / n, "ratio"}

	var first []sample
	for _, s := range ss {
		if s.pass == ss[0].pass {
			first = append(first, s)
		}
	}
	countMetrics(m, first)
}

// countMetrics fills the deterministic work counters from one pass.
func countMetrics(m map[string]metric, ss []sample) {
	n := float64(len(ss))
	var sum struct {
		edges, deliverCalls, rounds, visits, deliveries, collisions, silent float64
		words, drops, dropCalls, observes, identity                         float64
	}
	for _, s := range ss {
		c, st := s.run.c, s.run.stats
		sum.edges += float64(s.run.edges)
		sum.deliverCalls += float64(c.DeliverCalls)
		sum.rounds += float64(st.Rounds)
		sum.visits += float64(c.EdgeVisits)
		sum.deliveries += float64(st.Deliveries)
		sum.collisions += float64(st.CollisionObs)
		sum.silent += float64(st.SilentRounds)
		sum.words += float64(c.ListenerWords)
		sum.drops += float64(c.Drops)
		sum.dropCalls += float64(c.DropCalls)
		sum.observes += float64(c.ObserveCalls)
		sum.identity += float64(c.Identity)
	}
	m["graph.edges"] = metric{sum.edges / n, "count"}
	m["proto.deliver_calls"] = metric{sum.deliverCalls / n, "count"}
	m["radio.rounds"] = metric{sum.rounds / n, "count"}
	m["radio.edge_visits"] = metric{sum.visits / n, "count"}
	m["radio.delivery_ratio"] = metric{ratio(sum.deliveries, sum.visits), "ratio"}
	m["radio.collision_obs"] = metric{sum.collisions / n, "count"}
	m["radio.silent_frac"] = metric{ratio(sum.silent, sum.rounds), "ratio"}
	m["radio.listener_words"] = metric{sum.words / n, "count"}
	m["channel.droplink_calls"] = metric{sum.dropCalls / n, "count"}
	m["channel.drop_ratio"] = metric{ratio(sum.drops, sum.dropCalls), "ratio"}
	m["channel.observe_calls"] = metric{sum.observes / n, "count"}
	m["channel.observe_identity_frac"] = metric{ratio(sum.identity, sum.observes), "ratio"}
}

// perLayerUnits lists every per-layer metric with its unit; a workload
// reports 0 for a layer it does not exercise.
var perLayerUnits = map[string]string{
	"graph.build_ms": "ms", "graph.edges": "count", "graph.ns_per_edge": "ns", "graph.bfs_ms": "ms",
	"gst.construct_ms": "ms", "gst.flatten_ms": "ms",
	"proto.new_ms": "ms", "proto.collect_ms": "ms", "proto.deliver_ms": "ms",
	"proto.deliver_calls": "count", "proto.endround_ms": "ms",
	"proto.decay.ms": "ms", "proto.cr.ms": "ms", "proto.wave.ms": "ms", "proto.mmv.ms": "ms",
	"radio.new_ms": "ms", "radio.loop_ms": "ms", "radio.self_ms": "ms", "radio.rounds": "count",
	"radio.rounds_per_s": "1/s", "radio.edge_visits": "count", "radio.ns_per_edge_visit": "ns",
	"radio.delivery_ratio": "ratio", "radio.collision_obs": "count", "radio.silent_frac": "ratio",
	"radio.listener_words":   "count",
	"channel.droplink_calls": "count", "channel.drop_ratio": "ratio", "channel.observe_calls": "count",
	"channel.observe_identity_frac": "ratio", "channel.ms": "ms",
	"radiocastd.submit_ms_p50": "ms", "radiocastd.queue_ms_p50": "ms", "radiocastd.run_ms_p50": "ms",
	"radiocastd.pool_hit_ratio": "ratio", "radiocastd.events_per_job": "count",
	"radiocastd.rss_mb": "MB", "radiocastd.pool_miss_ms": "ms",
	"trace.ops_per_s": "1/s", "trace.overhead_frac": "ratio", "trace.accounted_frac": "ratio",
}

func zeroLayerMetrics(m map[string]metric) {
	for name, unit := range perLayerUnits {
		m[name] = metric{0, unit}
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// kindMedian is the median over op kinds of each kind's median op
// time. Every kind runs equally often, so the plain median of all ops
// falls between two kinds whenever the kind count is even, where it is
// set by one kind's slowest op and the next kind's fastest.
func kindMedian(byKind [][]float64) float64 {
	var meds []float64
	for _, xs := range byKind {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return median(meds)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// writePinned runs every op of every workload once at the pinned seed
// and writes their outputs.
func writePinned(cfg config, path string) error {
	cfg.seed = pinnedSeed
	pf := pinnedFile{Seed: pinnedSeed, Ops: map[string]output{}}
	for _, w := range workloads {
		cfg.workload = w
		if w == "daemon-dense" {
			if err := pinDaemon(cfg, pf.Ops); err != nil {
				return err
			}
			continue
		}
		var kinds []opKind
		if w == "adverse-gnp" {
			g, ecc := adverseGraph(cfg.sizes, cfg.seed)
			kinds = adverseGNP(g, ecc, cfg.seed)
		} else {
			kinds = sweepKinds(w, cfg.sizes, cfg.seed)
		}
		for v := 0; v < variants; v++ {
			for _, k := range kinds {
				pf.Ops[opKey(w, k.name, v)] = k.run(newTracer(false), v).out
			}
		}
	}
	blob, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
