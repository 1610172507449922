package main

// daemon-dense: radiocastd driven only through its HTTP API. A
// closed-loop client POSTs a job, waits for its SSE done event and
// sends the next. The graph (and for dense-gst the flat tree) of each
// spec is pooled per daemon worker, so after warm-up every job runs the
// protocol and engine layers without graph or tree construction.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"radiocast/internal/rng"
)

// daemonWorkers is radiocastd's job worker count; daemonClients is the
// number of closed-loop clients. One client leaves a vCPU of a 2-vCPU
// host free for the HTTP, event and GC work: with two, both jobs fill
// the host and the run-to-run spread of every time metric doubled
// (0.34-0.46 against 0.17-0.19, measured side by side).
const (
	daemonWorkers = 2
	daemonClients = 1
)

// graphSpec and jobSpec are the subset of radiocastd's JSON job spec
// the benchmark sends.
type graphSpec struct {
	Kind   string `json:"kind"`
	Rows   int    `json:"rows,omitempty"`
	Cols   int    `json:"cols,omitempty"`
	Chain  int    `json:"chain,omitempty"`
	Clique int    `json:"clique,omitempty"`
}

type jobSpec struct {
	Protocol string    `json:"protocol"`
	Graph    graphSpec `json:"graph"`
	Seed     uint64    `json:"seed"`
	Workers  int       `json:"workers"`
}

// daemonMix is the spec mix: one pooled context per entry and worker.
func daemonMix(sz sizes) []jobSpec {
	cluster := graphSpec{Kind: "cluster", Chain: sz.daemonCluster, Clique: sz.daemonCluster}
	grid := graphSpec{Kind: "grid", Rows: sz.daemonGrid, Cols: sz.daemonGrid}
	return []jobSpec{
		{Protocol: "dense-wave", Graph: cluster, Workers: 1},
		{Protocol: "dense-decay", Graph: cluster, Workers: 1},
		{Protocol: "dense-cr", Graph: grid, Workers: 1},
		{Protocol: "dense-gst", Graph: grid, Workers: 1},
	}
}

func (s jobSpec) n() int {
	if s.Graph.Kind == "grid" {
		return s.Graph.Rows * s.Graph.Cols
	}
	return s.Graph.Chain * s.Graph.Clique
}

func (s jobSpec) key(variant int) string {
	return opKey("daemon-dense", s.Protocol+"/"+s.Graph.Kind, variant)
}

// withSeed returns the spec of one seed variant.
func (s jobSpec) withSeed(seed uint64, fp, variant int) jobSpec {
	s.Seed = rng.Mix(seed, uint64(fp), uint64(variant))
	return s
}

// jobResult is the terminal result radiocastd reports.
type jobResult struct {
	Rounds       int64 `json:"rounds"`
	Completed    bool  `json:"completed"`
	Covered      int   `json:"covered"`
	Deliveries   int64 `json:"deliveries"`
	CollisionObs int64 `json:"collision_obs"`
	SilentRounds int64 `json:"silent_rounds"`
	WallMicros   int64 `json:"wall_us"`
}

func (r jobResult) output() output {
	return output{Rounds: r.Rounds, Completed: r.Completed, Deliveries: r.Deliveries, Covered: r.Covered}
}

// jobStatus holds the job timestamps of GET /v1/jobs/{id}.
type jobStatus struct {
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// daemon is one running radiocastd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
}

// buildDaemon compiles radiocastd into a fresh directory under out.
func buildDaemon(cfg config) (string, error) {
	tmp := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(tmp, "radiocastd-")
	if err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "radiocastd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/radiocastd")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build radiocastd: %v: %s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts radiocastd on a loopback port and waits until
// /readyz answers.
func startDaemon(bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-opsaddr", "", "-workers", strconv.Itoa(daemonWorkers),
		"-loglevel", "warn")
	// If the benchmark itself is killed, the daemon gets SIGTERM too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, client: &http.Client{}, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("radiocastd exited before ready: %v", err)
		default:
		}
		if resp, err := d.client.Get(d.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.kill()
	return nil, errors.New("radiocastd not ready after 20s")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and waits for a clean exit (status 0).
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("radiocastd did not exit cleanly: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("radiocastd did not stop within 30s of SIGTERM")
	}
}

// kill ends the daemon after a failure and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // it may already have exited
	<-d.exited
}

// counter scrapes one unlabelled counter from /metrics.
func (d *daemon) counter(name string) (float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, nil // not yet registered: no job has counted it
}

// poolCounts scrapes the pool hit and miss counters.
func (d *daemon) poolCounts() (hits, misses float64, err error) {
	if hits, err = d.counter("radiocastd_pool_hits_total"); err != nil {
		return 0, 0, err
	}
	misses, err = d.counter("radiocastd_pool_misses_total")
	return hits, misses, err
}

// job is one measured job.
type job struct {
	spec    jobSpec
	key     string
	start   time.Time
	posted  time.Time // POST answered
	done    time.Time // SSE done event read
	events  int
	result  jobResult
	status  jobStatus
	traced  bool
	ok      bool
	failure string
	first   bool // among each client's first pass over the mix
}

// run submits one job and waits for its SSE done event. With traced
// set it then reads the job's timestamps, outside the timed window.
func (d *daemon) run(j *job) {
	j.start = time.Now()
	body, _ := json.Marshal(j.spec) // a plain struct always encodes
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.failure = err.Error()
		return
	}
	var acc struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	j.posted = time.Now()
	if resp.StatusCode/100 != 2 || err != nil {
		j.failure = fmt.Sprintf("POST /v1/jobs: status %d", resp.StatusCode)
		return
	}
	if err := d.await(j, acc.ID); err != nil {
		j.failure = err.Error()
		return
	}
	j.done = time.Now()
	j.ok = true
	if j.traced {
		if err := d.timestamps(j, acc.ID); err != nil {
			j.ok, j.failure = false, err.Error()
		}
	}
}

// await reads the job's SSE stream up to its done or failed event.
func (d *daemon) await(j *job, id string) error {
	resp, err := d.client.Get(d.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			j.events++
		case strings.HasPrefix(line, "data: ") && event == "failed":
			return fmt.Errorf("job failed: %s", strings.TrimPrefix(line, "data: "))
		case strings.HasPrefix(line, "data: ") && event == "done":
			var ev struct {
				Result *jobResult `json:"result"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil || ev.Result == nil {
				return fmt.Errorf("bad done event: %s", line)
			}
			j.result = *ev.Result
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("event stream ended without a done event")
}

// timestamps reads the job's created/started/finished times. The done
// event is published just before the finished time is set, so it polls
// briefly for it.
func (d *daemon) timestamps(j *job, id string) error {
	for i := 0; i < 1000; i++ {
		resp, err := d.client.Get(d.base + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&j.status)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("GET job: %w", err)
		}
		if j.status.Started != nil && j.status.Finished != nil {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("job has no finished time")
}

// warm runs the whole mix on both daemon workers, pass after pass,
// until radiocastd_pool_misses_total stops growing. It returns the
// mean extra run time of a job that built its pooled context.
func (d *daemon) warm(mix []jobSpec, seed uint64) (float64, error) {
	var first, last float64
	prev := 0.0
	for pass := 0; ; pass++ {
		if pass == 10 {
			return 0, errors.New("pool misses still growing after 10 warm-up passes")
		}
		var wallUs float64
		for fp, spec := range mix {
			jobs := make([]job, daemonWorkers)
			var wg sync.WaitGroup
			for w := range jobs {
				jobs[w] = job{spec: spec.withSeed(seed, fp, w)}
				wg.Add(1)
				go func(j *job) {
					defer wg.Done()
					d.run(j)
				}(&jobs[w])
			}
			wg.Wait()
			for _, j := range jobs {
				if !j.ok {
					return 0, fmt.Errorf("warm-up job: %s", j.failure)
				}
				wallUs += float64(j.result.WallMicros)
			}
		}
		_, misses, err := d.poolCounts()
		if err != nil {
			return 0, err
		}
		if pass == 0 {
			first = wallUs
		}
		last = wallUs
		if pass > 0 && misses == prev {
			return ratio(first-last, misses) / 1e3, nil
		}
		prev = misses
	}
}

// pooledNodes is the node count the warmed pool holds.
func pooledNodes(mix []jobSpec) int {
	total := 0
	for _, s := range mix {
		total += daemonWorkers * s.n()
	}
	return total
}

// daemonSetup is one started and warmed radiocastd.
type daemonSetup struct {
	d      *daemon
	rss0KB int64 // resident size when ready, before warm-up
	missMs float64
}

// setUpDaemon starts radiocastd and warms its pool.
func setUpDaemon(cfg config, bin string, mix []jobSpec) (*daemonSetup, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	s := &daemonSetup{d: d}
	if s.rss0KB, err = statusKB(d.pid(), "VmRSS"); err == nil {
		s.missMs, err = d.warm(mix, cfg.seed)
	}
	if err != nil {
		d.kill()
		return nil, err
	}
	return s, nil
}

// runDaemon is the daemon-dense workload. It builds radiocastd once,
// then starts and warms it setupRepeats times, stopping every daemon
// but the last; setup_s is the build time plus the median start and
// warm-up time.
func runDaemon(cfg config) (*report, error) {
	mix := daemonMix(cfg.sizes)
	t0 := time.Now()
	bin, err := buildDaemon(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Dir(bin))
	build := time.Since(t0).Seconds()
	var startTimes []float64
	var s *daemonSetup
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if s, err = setUpDaemon(cfg, bin, mix); err != nil {
			return nil, err
		}
		startTimes = append(startTimes, time.Since(t0).Seconds())
	}
	rep, err := measureDaemon(cfg, s, mix, build+median(startTimes))
	if serr := s.d.stop(); err == nil {
		err = serr
	}
	return rep, err
}

// phase is one closed-loop measurement phase.
type phase struct {
	jobs    []*job
	wall    time.Duration
	cpu     time.Duration
	hits    float64
	misses  float64
	peakKB  int64
	finalKB int64
}

// runPhase runs the closed-loop clients for the given time.
func (d *daemon) runPhase(cfg config, mix []jobSpec, seconds float64, traced bool) (*phase, error) {
	p := &phase{}
	hits0, misses0, err := d.poolCounts()
	if err != nil {
		return nil, err
	}
	if err := resetPeak(d.pid()); err != nil {
		return nil, fmt.Errorf("reset radiocastd peak RSS: %w", err)
	}
	cpu0, err := cpuOf(d.pid())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline) || k == 0; k++ {
				fp, variant := k%len(mix), (k/len(mix)+c*variants/daemonClients)%variants
				j := &job{spec: mix[fp].withSeed(cfg.seed, fp, variant), key: mix[fp].key(variant),
					traced: traced, first: k < len(mix)}
				d.run(j)
				j.ok = j.ok && checkJob(cfg, j)
				mu.Lock()
				p.jobs = append(p.jobs, j)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	cpu1, err := cpuOf(d.pid())
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if p.peakKB, err = statusKB(d.pid(), "VmHWM"); err != nil {
		return nil, err
	}
	if p.finalKB, err = statusKB(d.pid(), "VmRSS"); err != nil {
		return nil, err
	}
	hits1, misses1, err := d.poolCounts()
	if err != nil {
		return nil, err
	}
	p.hits, p.misses = hits1-hits0, misses1-misses0
	return p, nil
}

// checkJob compares a job's output with its pinned value or, for other
// seeds, checks that it completed with full coverage.
func checkJob(cfg config, j *job) bool {
	if !j.ok {
		return false
	}
	if cfg.pinned != nil {
		want, ok := cfg.pinned[j.key]
		if !ok || want != j.result.output() {
			j.failure = "output differs from pinned"
			return false
		}
		return true
	}
	return j.result.Completed && j.result.Covered == j.spec.n()
}

// measureDaemon runs the measured phase, or for a traced run an
// untraced half then a traced half, and reports.
func measureDaemon(cfg config, s *daemonSetup, mix []jobSpec, setup float64) (*report, error) {
	rep := &report{Metrics: map[string]metric{}}
	if !cfg.trace {
		p, err := s.d.runPhase(cfg, mix, cfg.seconds, false)
		if err != nil {
			return nil, err
		}
		count(rep, p)
		daemonEndToEnd(rep.Metrics, p, s, mix, setup)
		return rep, nil
	}
	plain, err := s.d.runPhase(cfg, mix, cfg.seconds/2, false)
	if err != nil {
		return nil, err
	}
	traced, err := s.d.runPhase(cfg, mix, cfg.seconds/2, true)
	if err != nil {
		return nil, err
	}
	count(rep, plain)
	count(rep, traced)
	t := newTracer(true)
	daemonLayers(rep.Metrics, t, plain, traced, s)
	if err := t.write(tracePath(cfg)); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return rep, nil
}

func count(rep *report, p *phase) {
	for _, j := range p.jobs {
		rep.Attempted++
		if !j.ok {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: job %s failed: %s\n", j.key, j.failure)
		}
	}
	rep.Correct = rep.Failed == 0
}

func latenciesMs(p *phase) []float64 {
	var ms []float64
	for _, j := range p.jobs {
		if j.ok {
			ms = append(ms, float64(j.done.Sub(j.start))/1e6)
		}
	}
	return ms
}

// latenciesBySpec groups the successful jobs' latencies by spec.
func latenciesBySpec(p *phase) [][]float64 {
	idx := map[string]int{}
	var out [][]float64
	for _, j := range p.jobs {
		if !j.ok {
			continue
		}
		spec := j.spec.Protocol + "/" + j.spec.Graph.Kind
		i, seen := idx[spec]
		if !seen {
			i = len(out)
			idx[spec] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], float64(j.done.Sub(j.start))/1e6)
	}
	return out
}

func daemonOpsPerSec(p *phase) float64 {
	return float64(len(latenciesMs(p))) / p.wall.Seconds()
}

// daemonEndToEnd fills the end-to-end metrics. The daemon's memory is
// read from outside: peak_rss_mb is its resident high-water mark over
// the measured phase, and bytes_per_node its resident growth since it
// became ready, per node held by the warmed pool.
func daemonEndToEnd(m map[string]metric, p *phase, s *daemonSetup, mix []jobSpec, setup float64) {
	ms := latenciesMs(p)
	m["ops_per_s"] = metric{daemonOpsPerSec(p), "1/s"}
	m["op_ms_p50"] = metric{kindMedian(latenciesBySpec(p)), "ms"}
	m["op_ms_p90"] = metric{quantile(ms, 0.9), "ms"}
	m["cpu_s_per_op"] = metric{ratio(p.cpu.Seconds(), float64(len(ms))), "s"}
	m["peak_rss_mb"] = metric{float64(p.peakKB) / 1024, "MB"}
	m["bytes_per_node"] = metric{float64(p.finalKB-s.rss0KB) * 1024 / float64(pooledNodes(mix)), "B"}
	m["setup_s"] = metric{setup, "s"}
}

// daemonLayers fills the per-layer metrics of the traced half and
// records each job as a root span with its radiocastd children. The
// engine counters come from each client's first pass over the mix,
// whose seeds are the same in every run of a seed.
func daemonLayers(m map[string]metric, t *tracer, plain, traced *phase, s *daemonSetup) {
	zeroLayerMetrics(m)
	var submit, queue, run, accounted []float64
	var events, rounds, collisions, silent, wallUs, firstRounds, firstJobs float64
	for _, j := range traced.jobs {
		if !j.ok {
			continue
		}
		st := j.status
		submit = append(submit, float64(j.posted.Sub(j.start))/1e6)
		queue = append(queue, float64(st.Started.Sub(st.Created))/1e6)
		run = append(run, float64(st.Finished.Sub(*st.Started))/1e6)
		accounted = append(accounted, float64(st.Finished.Sub(j.start))/float64(j.done.Sub(j.start)))
		events += float64(j.events)
		rounds += float64(j.result.Rounds)
		wallUs += float64(j.result.WallMicros)
		if j.first {
			firstJobs++
			firstRounds += float64(j.result.Rounds)
			collisions += float64(j.result.CollisionObs)
			silent += float64(j.result.SilentRounds)
		}

		at := func(ts time.Time) int64 { return int64(ts.Sub(t.base)) }
		t.op = len(t.spans)
		root := len(t.spans)
		t.spans = append(t.spans, span{Op: t.op, ID: root, Parent: -1, Name: j.key, Start: at(j.start), End: at(j.done)})
		for _, c := range []struct {
			name     string
			from, to time.Time
		}{
			{"radiocastd.submit", j.start, j.posted},
			{"radiocastd.queue", st.Created, *st.Started},
			{"radiocastd.run", *st.Started, *st.Finished},
		} {
			t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans), Parent: root, Name: c.name,
				Start: at(c.from), End: at(c.to)})
		}
	}
	n := float64(len(run))
	m["radiocastd.submit_ms_p50"] = metric{median(submit), "ms"}
	m["radiocastd.queue_ms_p50"] = metric{median(queue), "ms"}
	m["radiocastd.run_ms_p50"] = metric{median(run), "ms"}
	m["radiocastd.pool_hit_ratio"] = metric{ratio(traced.hits, traced.hits+traced.misses), "ratio"}
	m["radiocastd.events_per_job"] = metric{ratio(events, n), "count"}
	m["radiocastd.rss_mb"] = metric{float64(traced.finalKB) / 1024, "MB"}
	m["radiocastd.pool_miss_ms"] = metric{s.missMs, "ms"}
	m["radio.rounds"] = metric{ratio(firstRounds, firstJobs), "count"}
	m["radio.rounds_per_s"] = metric{ratio(rounds, wallUs/1e6), "1/s"}
	m["radio.loop_ms"] = metric{ratio(wallUs, n) / 1e3, "ms"}
	m["radio.collision_obs"] = metric{ratio(collisions, firstJobs), "count"}
	m["radio.silent_frac"] = metric{ratio(silent, firstRounds), "ratio"}
	tracedOps := daemonOpsPerSec(traced)
	m["trace.ops_per_s"] = metric{tracedOps, "1/s"}
	m["trace.overhead_frac"] = metric{ratio(daemonOpsPerSec(plain), tracedOps) - 1, "ratio"}
	m["trace.accounted_frac"] = metric{median(accounted), "ratio"}
}

// pinDaemon records the output of every (spec, seed variant) job.
func pinDaemon(cfg config, ops map[string]output) error {
	mix := daemonMix(cfg.sizes)
	bin, err := buildDaemon(cfg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Dir(bin))
	d, err := startDaemon(bin)
	if err != nil {
		return err
	}
	for fp, spec := range mix {
		for v := 0; v < variants; v++ {
			j := &job{spec: spec.withSeed(cfg.seed, fp, v)}
			d.run(j)
			if !j.ok {
				d.kill()
				return fmt.Errorf("pin %s: %s", spec.key(v), j.failure)
			}
			ops[spec.key(v)] = j.result.output()
		}
	}
	return d.stop()
}
