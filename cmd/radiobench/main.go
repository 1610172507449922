// Command radiobench regenerates every experiment table of
// EXPERIMENTS.md.
//
// Usage:
//
//	radiobench [-seeds N] [-quick] [-format text|csv|markdown]
//	           [-only E1,E7] [-experiments E13,E14,E15] [-parallel]
//	           [-workers N] [-timeout 30s] [-roundlimit N] [-json FILE]
//	           [-scalemaxn N] [-scaleworkers N]
//	           [-cpuprofile FILE] [-memprofile FILE]
//	           [-logformat text|json] [-loglevel debug|info|warn|error]
//
// Each experiment reproduces one theorem/lemma of the paper as a
// measured round-complexity table — plus the E13-E16 robustness sweeps
// over the adversarial channels of internal/channel; see
// EXPERIMENTS.md for the mapping and the expected shapes.
//
// Experiments are compiled to cell plans (internal/exp) and executed
// by ONE global worker pool (exp.Runner.RunAll): the (configuration ×
// seed) cells of every selected experiment feed the pool together,
// longest-cell-first, so a sweep is never serialized behind its
// slowest experiment. -parallel fans the pool across GOMAXPROCS
// goroutines (-workers overrides the count). Results merge in
// per-plan cell-key order, so the table output on stdout is
// byte-identical to a sequential run; timing diagnostics go to stderr
// (per-experiment figures are summed cell wall times — under the
// global pool an experiment has no wall-clock of its own). -timeout
// and -roundlimit bound each cell's wall clock and simulated rounds
// (the fixed-schedule cells of E3-E6, E11 and E12 ignore -roundlimit).
// -json writes a machine-readable bench artifact with per-cell rounds
// and wall times ("-" for stdout). -scalemaxn raises the largest
// workload of the E19-E22 scale sweeps (the acceptance run is
// "-only E19,E20,E21,E22 -scalemaxn 1000000 -seeds 1 -json BENCH_scale.json")
// and -scaleworkers pins their dense-engine worker count — scale
// output is byte-identical at any worker setting, only wall times
// move; both land in a harness.ScaleConfig threaded through
// harness.AllWithScale. Flag values the run cannot honor (-seeds < 1,
// an unknown -format or -only id, -scalemaxn < 1, a negative
// -workers, -scaleworkers or -roundlimit) exit 2 before anything runs. -cpuprofile/-memprofile write
// runtime/pprof profiles of the sweep so perf work can show profiles
// instead of guesses. Stderr diagnostics ride the shared internal/obs
// logger: -logformat json makes them machine-parseable, -loglevel
// debug adds a per-cell "cell.done" event stream. Tables on stdout are
// untouched by either flag (CI compares them byte-for-byte).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"radiocast/internal/exp"
	"radiocast/internal/harness"
	"radiocast/internal/obs"
)

// formats lists the -format values.
var formats = []string{"text", "csv", "markdown"}

// validateFlags rejects flag values that would otherwise be silently
// ignored, clamped or rendered as an empty sweep: every flag the run
// cannot honor is an error, not a no-op. ids are the upper-cased
// -only/-experiments entries (nil = all experiments).
func validateFlags(seeds int, format string, ids []string, scaleMaxN, scaleWorkers, workers int, roundLimit int64) error {
	if seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1, got %d", seeds)
	}
	if !slices.Contains(formats, format) {
		return fmt.Errorf("-format must be one of %s, got %q", strings.Join(formats, ", "), format)
	}
	if scaleMaxN < 1 {
		return fmt.Errorf("-scalemaxn must be >= 1, got %d", scaleMaxN)
	}
	if scaleWorkers < 0 {
		return fmt.Errorf("-scaleworkers must be >= 0 (0 = min(8, GOMAXPROCS)), got %d", scaleWorkers)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 with -parallel = GOMAXPROCS), got %d", workers)
	}
	if roundLimit < 0 {
		return fmt.Errorf("-roundlimit must be >= 0 (0 = experiment defaults), got %d", roundLimit)
	}
	known := map[string]bool{}
	for _, e := range harness.All() {
		known[e.ID] = true
	}
	for _, id := range ids {
		if !known[id] {
			return fmt.Errorf("unknown experiment id %q in -only", id)
		}
	}
	return nil
}

func main() {
	seeds := flag.Int("seeds", 3, "independent seeds per configuration")
	quick := flag.Bool("quick", false, "trim sweeps for a fast pass")
	format := flag.String("format", "text", "output format: text, csv, or markdown")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	experiments := flag.String("experiments", "", "alias for -only")
	parallel := flag.Bool("parallel", false, "fan experiment cells across GOMAXPROCS workers")
	workers := flag.Int("workers", 0, "worker count; setting it implies -parallel (0 with -parallel = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-cell wall-clock guard (0 = none)")
	roundLimit := flag.Int64("roundlimit", 0, "per-cell simulated-round cap (0 = experiment defaults; the fixed-schedule cells of E3-E6, E11 and E12 ignore it)")
	jsonPath := flag.String("json", "", "write a JSON bench artifact to this file (\"-\" = stdout)")
	scaleMaxN := flag.Int("scalemaxn", 100_000, "largest workload size of the E19-E22 scale sweeps (acceptance: 1000000)")
	scaleWorkers := flag.Int("scaleworkers", 0, "dense-engine workers for E19-E22 cells (0 = min(8, GOMAXPROCS); output is identical at any setting)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the sweep) to this file")
	logFormat := flag.String("logformat", "text", "stderr diagnostics format: text or json")
	logLevel := flag.String("loglevel", "info", "stderr diagnostics level: debug (per-cell events), info, warn, error")
	flag.Parse()

	lg, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "radiobench: %v\n", err)
		os.Exit(2)
	}

	if *only == "" {
		*only = *experiments
	}
	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.ToUpper(strings.TrimSpace(id)))
		}
	}
	if err := validateFlags(*seeds, *format, ids, *scaleMaxN, *scaleWorkers, *workers, *roundLimit); err != nil {
		fmt.Fprintf(os.Stderr, "radiobench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	scale := harness.ScaleConfig{MaxN: *scaleMaxN, Workers: *scaleWorkers}
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}

	// The CPU profile is stopped (and flushed) explicitly right after
	// the sweep rather than via defer: later os.Exit error paths
	// (artifact write failures) must not leave a truncated profile of
	// the very sweep the flag exists to diagnose.
	var cpuFile *os.File
	stopCPU := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			cpuFile = nil
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}

	runner := &exp.Runner{Parallelism: 1, Timeout: *timeout, RoundLimit: *roundLimit, Log: lg}
	if *parallel || *workers > 0 {
		runner.Parallelism = *workers // 0 = GOMAXPROCS
	}
	resolved := runner.Parallelism
	if resolved == 0 {
		resolved = runtime.GOMAXPROCS(0)
	}
	artifact := exp.NewArtifact(*seeds, *quick, resolved)

	// Compile every selected plan, then execute ALL their cells through
	// one pool: the global scheduler keeps every worker busy until the
	// whole sweep drains.
	var selected []harness.Experiment
	var plans []*exp.Plan
	for _, e := range harness.AllWithScale(scale) {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		selected = append(selected, e)
		plans = append(plans, e.Plan(*seeds, *quick))
	}
	start := time.Now()
	allResults := runner.RunAll(plans)
	total := time.Since(start)
	stopCPU() // the profile covers compile + sweep, not output rendering

	for i, e := range selected {
		plan, results := plans[i], allResults[i]
		tb := plan.Assemble(results)
		// An experiment has no private wall clock under the global pool;
		// report its summed cell time (its single-core execution cost).
		cellWall := time.Duration(0)
		for _, r := range results {
			cellWall += r.Wall
		}
		artifact.Add(plan, tb, results, cellWall)
		switch *format {
		case "csv":
			fmt.Printf("# %s: %s\n%s\n", e.ID, e.Title, tb.CSV())
		case "markdown":
			fmt.Printf("### %s: %s\n\n%s\n", e.ID, e.Title, tb.Markdown())
		default:
			fmt.Printf("%s\n", tb.String())
		}
		lg.Info(obs.EventExpDone,
			"experiment", e.ID,
			"cells", len(plan.Cells),
			"seeds", *seeds,
			"cell_wall_ms", cellWall.Milliseconds())
		for _, r := range results {
			if r.Err != "" {
				lg.Warn("cell failed",
					"experiment", e.ID,
					"config", r.Key.Config,
					"seed", r.Key.Seed,
					"err", r.Err)
			}
		}
	}
	lg.Info("sweep done",
		"experiments", len(selected),
		"wall_ms", total.Milliseconds(),
		"workers", resolved)

	// The allocation profile is written before the JSON artifact so a
	// failed artifact write cannot discard the profile of a sweep that
	// already ran (mirroring the cpuprofile early-flush above).
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // materialize the final heap state
		err = pprof.Lookup("allocs").WriteTo(f, 0)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}

	if *jsonPath != "" {
		blob, err := artifact.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal artifact: %v\n", err)
			os.Exit(1)
		}
		blob = append(blob, '\n')
		if *jsonPath == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write artifact: %v\n", err)
			os.Exit(1)
		}
	}
}
