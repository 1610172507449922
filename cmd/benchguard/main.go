// Command benchguard gates CI on allocation regressions: it parses
// `go test -bench -benchmem` output from stdin, compares each
// benchmark's allocs/op against a committed baseline, and exits
// non-zero when any guarded benchmark regresses past the tolerance.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkEngine' -benchmem -benchtime 3x . \
//	    | go run ./cmd/benchguard -baseline bench/baseline.json
//
// The baseline file pins allocs/op per benchmark (see bench/
// baseline.json). Allocation counts — unlike ns/op — are deterministic
// for this codebase's deterministic workloads, so a small tolerance
// only absorbs Go-toolchain drift, not noise. A guarded benchmark
// missing from the input is an error too: a silently-skipped guard is
// a disabled guard. Improvements (fewer allocs) print a note — commit
// the lower number to ratchet the baseline down.
//
// A second mode guards the E19 scale-sweep trajectory (see scale.go):
//
//	go run ./cmd/benchguard -scale BENCH_scale.json \
//	    -scalebaseline bench/scale_baseline.json
//
// A third pins the same artifact's outputs (see cells.go):
//
//	go run ./cmd/benchguard -cells BENCH_scale.json \
//	    -cellpins bench/scale_cells.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// Baseline is the committed allocation contract.
type Baseline struct {
	// TolerancePct is the allowed relative increase in allocs/op.
	TolerancePct float64 `json:"tolerance_pct"`
	// AllocsPerOp maps benchmark name (without the -GOMAXPROCS suffix)
	// to its pinned allocs/op.
	AllocsPerOp map[string]int64 `json:"allocs_per_op"`
}

// benchLine matches one -benchmem result line, e.g.
// "BenchmarkX-4   5   123 ns/op   77 rounds/op   456 B/op   7 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+.*?\s(\d+)\s+allocs/op`)

func main() {
	baselinePath := flag.String("baseline", "bench/baseline.json", "committed baseline JSON")
	scalePath := flag.String("scale", "", "radiobench -json scale artifact (BENCH_scale.json); enables the E19 trajectory ratchet instead of the stdin alloc gate")
	scaleBaselinePath := flag.String("scalebaseline", "bench/scale_baseline.json", "committed scale-trajectory baseline JSON")
	cellsPath := flag.String("cells", "", "radiobench -json artifact whose per-experiment cells digests must match -cellpins; enables that check instead of the stdin alloc gate")
	cellPinsPath := flag.String("cellpins", "bench/scale_cells.json", "committed cells digests, keyed <ID>/cells")
	flag.Parse()

	if *cellsPath != "" {
		runCellsGuard(*cellsPath, *cellPinsPath)
		return
	}
	if *scalePath != "" {
		runScaleGuard(*scalePath, *scaleBaselinePath)
		return
	}

	blob, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(blob, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: parse %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}

	got := map[string]int64{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so CI logs keep the full output
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		allocs, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		got[m[1]] = allocs
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: read stdin: %v\n", err)
		os.Exit(2)
	}

	failed := false
	for name, want := range base.AllocsPerOp {
		have, ok := got[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s: guarded benchmark did not run\n", name)
			failed = true
			continue
		}
		limit := float64(want) * (1 + base.TolerancePct/100)
		switch {
		case float64(have) > limit:
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s: %d allocs/op, baseline %d (+%.0f%% tolerance = %.0f)\n",
				name, have, want, base.TolerancePct, limit)
			failed = true
		case have < want:
			fmt.Fprintf(os.Stderr, "benchguard: note %s improved: %d allocs/op vs baseline %d — consider ratcheting the baseline down\n",
				name, have, want)
		default:
			fmt.Fprintf(os.Stderr, "benchguard: ok %s: %d allocs/op (baseline %d)\n", name, have, want)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runScaleGuard runs the E19 trajectory ratchet (-scale mode).
func runScaleGuard(artifactPath, baselinePath string) {
	baseBlob, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	var base ScaleBaseline
	if err := json.Unmarshal(baseBlob, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: parse %s: %v\n", baselinePath, err)
		os.Exit(2)
	}
	artBlob, err := os.ReadFile(artifactPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	got, err := scaleMetrics(artBlob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", artifactPath, err)
		os.Exit(2)
	}
	if checkScale(base, got, os.Stderr) {
		os.Exit(1)
	}
}
