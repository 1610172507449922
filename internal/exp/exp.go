// Package exp is the experiment-orchestration subsystem: a declarative
// cell model (experiment × configuration × seed), a worker-pool runner
// that fans cells across CPUs with per-cell timeout/round-limit guards,
// and machine-readable bench artifacts.
//
// A Cell is the atomic unit of measurement — one protocol run (or one
// batch of micro-trials) under one configuration with one seed. A Plan
// couples an ordered cell list with an Assemble function that folds the
// per-cell results into a stats.Table. Because the runner stores each
// result at its cell's index, the merged result slice — and therefore
// the assembled table — is identical whether the cells ran on one
// worker or sixteen: output is ordered by cell key, never by
// completion order.
package exp

import (
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"radiocast/internal/obs"
	"radiocast/internal/stats"
)

// Key identifies one cell: which experiment, which configuration
// within it, and which seed.
type Key struct {
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
	Seed       uint64 `json:"seed"`
}

// String renders the key as "E1/chain=32/decay seed=2".
func (k Key) String() string {
	return fmt.Sprintf("%s/%s seed=%d", k.Experiment, k.Config, k.Seed)
}

// Result is the outcome of one cell.
type Result struct {
	Key Key `json:"key"`
	// Rounds is the simulated round count (0 for cells that measure
	// something other than a protocol run).
	Rounds int64 `json:"rounds"`
	// Completed reports protocol success within the round limit.
	Completed bool `json:"completed"`
	// Value is an experiment-specific scalar (success count, rate, ...).
	Value float64 `json:"value,omitempty"`
	// Dropped and Jammed are the channel-adversity counters of the run
	// (zero on the ideal channel): deliveries erased by the channel and
	// observations whose class the channel changed.
	Dropped int64 `json:"dropped,omitempty"`
	Jammed  int64 `json:"jammed,omitempty"`
	// BusyRounds, SilentRounds and MaxFrontier are the engine's frontier
	// counters (radio.Stats): executed rounds with/without a surviving
	// transmitter and the peak per-round transmitter count. Populated by
	// the cells that expose full engine stats (the E19 scale sweep).
	BusyRounds   int64 `json:"busy_rounds,omitempty"`
	SilentRounds int64 `json:"silent_rounds,omitempty"`
	MaxFrontier  int64 `json:"max_frontier,omitempty"`
	// Epochs and Covered describe adaptive-retry cells (adapt.Outcome):
	// epochs executed and nodes informed when the policy stopped.
	Epochs  int `json:"epochs,omitempty"`
	Covered int `json:"covered,omitempty"`
	// MemBytes is the cell's measured live-heap growth (scale cells:
	// graph + engine + protocol state), and PeakRSS the process peak
	// resident set sampled after the run. Both are environment-dependent
	// measurements, not reproducible outputs: they ride the artifact for
	// capacity planning and are zeroed by Canonical alongside the wall
	// clocks.
	MemBytes int64 `json:"mem_bytes,omitempty"`
	PeakRSS  int64 `json:"peak_rss_bytes,omitempty"`
	// Err is set when the cell timed out or panicked.
	Err string `json:"error,omitempty"`
	// Wall is the cell's wall-clock execution time.
	Wall time.Duration `json:"wall_ns"`
	// Payload carries experiment-specific structured data to Assemble;
	// it is not serialized into artifacts.
	Payload any `json:"-"`
}

// Rounds is a convenience Result for plain protocol runs.
func Rounds(rounds int64, completed bool) Result {
	return Result{Rounds: rounds, Completed: completed}
}

// Value is a convenience Result for scalar measurements.
func Value(v float64) Result {
	return Result{Completed: true, Value: v}
}

// RoundsOn is Rounds plus the channel-adversity counters of the run.
func RoundsOn(rounds int64, completed bool, dropped, jammed int64) Result {
	return Result{Rounds: rounds, Completed: completed, Dropped: dropped, Jammed: jammed}
}

// Cell is one schedulable unit of work.
type Cell struct {
	Key Key
	// RoundLimit is the cell's default simulated-round cap, passed to
	// Run (possibly lowered by Runner.RoundLimit). Zero means the
	// experiment's own fixed budget applies.
	RoundLimit int64
	// Cost is an estimated execution weight (simulated rounds × nodes
	// is the usual proxy). RunAll schedules costlier cells first so a
	// handful of long cells cannot serialize the tail of a sweep; zero
	// means unknown (scheduled after every costed cell, in plan order).
	Cost int64
	// Run executes the cell. It must be deterministic given the cell's
	// construction (the runner may execute it on any worker) and must
	// not mutate state shared with other cells.
	Run func(roundLimit int64) Result
}

// Plan is an experiment compiled to cells plus a table assembler.
type Plan struct {
	ID    string
	Title string
	Cells []Cell
	// Assemble folds the results (indexed exactly like Cells) into the
	// rendered table. It runs on the caller's goroutine.
	Assemble func(results []Result) *stats.Table
}

// Runner executes plans. The zero value runs sequentially with no
// guards.
type Runner struct {
	// Parallelism is the worker count: 1 (or less than 0) runs on the
	// calling goroutine; 0 means GOMAXPROCS.
	Parallelism int
	// Timeout is the per-cell wall-clock guard; 0 disables it. A cell
	// that exceeds it yields a Result with Err set (its goroutine is
	// abandoned; protocol runs are round-limited, so they terminate).
	Timeout time.Duration
	// RoundLimit, when positive, lowers every cell's round cap. Cells
	// that run a fixed schedule or a batch of micro-trials ignore it
	// (in the harness: E3-E6, E11 and E12).
	RoundLimit int64
	// Metrics, when non-nil, accumulates per-experiment sweep counters
	// (cells, errors, rounds, wall-time histogram) under the
	// radiocast_exp_* names. Counters are atomic, so any worker count is
	// fine; nil costs nothing.
	Metrics *obs.Registry
	// Log, when non-nil, emits one structured cell.done event per
	// executed cell. nil costs nothing.
	Log *slog.Logger
}

func (r *Runner) workers(cells int) int {
	w := r.Parallelism
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every cell of the plan through RunAll's pool and returns
// results indexed exactly like p.Cells, regardless of completion order.
func (r *Runner) Run(p *Plan) []Result { return r.RunAll([]*Plan{p})[0] }

// RunTable executes the plan and assembles its table.
func (r *Runner) RunTable(p *Plan) (*stats.Table, []Result) {
	results := r.Run(p)
	return p.Assemble(results), results
}

// RunAll executes every cell of every plan through ONE worker pool —
// the cross-experiment scheduler. A per-plan Run serializes sweeps
// behind their slowest experiment (workers idle while the last long
// cells of one plan drain before the next plan starts); RunAll instead
// admits all cells at once, ordered longest-first by Cell.Cost, so
// long cells start early and short cells backfill the stragglers.
//
// Results are stored at [plan][cell] exactly like the input slices, so
// per-plan assembly — and therefore all rendered output — is
// byte-identical to sequential execution regardless of worker count or
// admission order.
func (r *Runner) RunAll(plans []*Plan) [][]Result {
	results := make([][]Result, len(plans))
	type ref struct{ plan, cell int }
	var refs []ref
	for pi, p := range plans {
		results[pi] = make([]Result, len(p.Cells))
		for ci := range p.Cells {
			refs = append(refs, ref{pi, ci})
		}
	}
	// Longest-cell-first admission; stable, so zero-cost cells keep
	// plan order among themselves.
	sort.SliceStable(refs, func(i, j int) bool {
		return plans[refs[i].plan].Cells[refs[i].cell].Cost >
			plans[refs[j].plan].Cells[refs[j].cell].Cost
	})
	w := r.workers(len(refs))
	if w == 1 {
		for _, rf := range refs {
			results[rf.plan][rf.cell] = r.runCell(&plans[rf.plan].Cells[rf.cell])
		}
		return results
	}
	var wg sync.WaitGroup
	next := make(chan ref)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rf := range next {
				results[rf.plan][rf.cell] = r.runCell(&plans[rf.plan].Cells[rf.cell])
			}
		}()
	}
	for _, rf := range refs {
		next <- rf
	}
	close(next)
	wg.Wait()
	return results
}

func (r *Runner) runCell(c *Cell) Result {
	limit := c.RoundLimit
	if r.RoundLimit > 0 && (limit == 0 || r.RoundLimit < limit) {
		limit = r.RoundLimit
	}
	start := time.Now()
	if r.Timeout <= 0 {
		res := safeRun(c, limit)
		res.Key = c.Key
		res.Wall = time.Since(start)
		r.observe(res)
		return res
	}
	done := make(chan Result, 1)
	go func() { done <- safeRun(c, limit) }()
	timer := time.NewTimer(r.Timeout)
	defer timer.Stop()
	select {
	case res := <-done:
		res.Key = c.Key
		res.Wall = time.Since(start)
		r.observe(res)
		return res
	case <-timer.C:
		res := Result{
			Key:  c.Key,
			Err:  fmt.Sprintf("timeout after %v", r.Timeout),
			Wall: time.Since(start),
		}
		r.observe(res)
		return res
	}
}

// observe reports one finished cell to the runner's metrics and log.
// Measurement only — results are never altered, so instrumented and
// bare sweeps stay byte-identical.
func (r *Runner) observe(res Result) {
	if r.Metrics != nil {
		exp := obs.L("experiment", res.Key.Experiment)
		r.Metrics.Counter("radiocast_exp_cells_total", "experiment cells executed", exp).Inc()
		r.Metrics.Counter("radiocast_exp_rounds_total", "simulated rounds across cells", exp).Add(res.Rounds)
		if res.Err != "" {
			r.Metrics.Counter("radiocast_exp_cell_errors_total", "cells that timed out or panicked", exp).Inc()
		}
		r.Metrics.Histogram("radiocast_exp_cell_wall_seconds", "per-cell wall time",
			obs.DefTimeBuckets, exp).Observe(res.Wall.Seconds())
	}
	if r.Log != nil {
		// Debug: a sweep runs hundreds of cells; info level keeps the
		// per-experiment summaries (the CLI's) without the cell firehose.
		r.Log.Debug(obs.EventCellDone,
			"experiment", res.Key.Experiment,
			"config", res.Key.Config,
			"seed", res.Key.Seed,
			"rounds", res.Rounds,
			"completed", res.Completed,
			"wall_us", res.Wall.Microseconds(),
			"err", res.Err)
	}
}

// safeRun converts a cell panic into an error result so one bad cell
// cannot take down a whole sweep.
func safeRun(c *Cell, limit int64) (res Result) {
	defer func() {
		if rec := recover(); rec != nil {
			res = Result{Err: fmt.Sprintf("panic: %v", rec)}
		}
	}()
	return c.Run(limit)
}
