package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"radiocast/internal/stats"
)

// countingPlan builds a plan of n cells whose results encode their
// index, with artificial per-cell work skew so parallel completion
// order differs from submission order.
func countingPlan(n int, skew time.Duration) *Plan {
	p := &Plan{ID: "T", Title: "test"}
	for i := 0; i < n; i++ {
		p.Cells = append(p.Cells, Cell{
			Key: Key{Experiment: "T", Config: fmt.Sprintf("cell=%d", i), Seed: uint64(i)},
			Run: func(int64) Result {
				if skew > 0 {
					// Later-submitted cells finish first.
					time.Sleep(time.Duration(n-i) * skew)
				}
				return Result{Rounds: int64(i), Completed: true}
			},
		})
	}
	p.Assemble = func(results []Result) *stats.Table {
		t := &stats.Table{Title: "T", Header: []string{"cell", "rounds"}}
		for _, r := range results {
			t.AddRow(r.Key.Config, fmt.Sprint(r.Rounds))
		}
		return t
	}
	return p
}

func TestRunnerMergesInCellOrder(t *testing.T) {
	p := countingPlan(16, time.Millisecond)
	for _, workers := range []int{1, 4, 16} {
		r := &Runner{Parallelism: workers}
		results := r.Run(p)
		if len(results) != 16 {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		for i, res := range results {
			if res.Rounds != int64(i) || res.Key.Seed != uint64(i) {
				t.Fatalf("workers=%d: result %d out of order: %+v", workers, i, res)
			}
			if res.Wall <= 0 {
				t.Fatalf("workers=%d: result %d has no wall time", workers, i)
			}
		}
	}
}

func TestRunnerParallelTableMatchesSequential(t *testing.T) {
	p := countingPlan(24, 100*time.Microsecond)
	seqTb, _ := (&Runner{Parallelism: 1}).RunTable(p)
	parTb, _ := (&Runner{Parallelism: 8}).RunTable(p)
	if seqTb.String() != parTb.String() {
		t.Fatalf("tables diverge:\n%s\nvs\n%s", seqTb.String(), parTb.String())
	}
}

func TestRunnerTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p := &Plan{ID: "T", Cells: []Cell{{
		Key: Key{Experiment: "T", Config: "hang"},
		Run: func(int64) Result { <-block; return Result{} },
	}}}
	r := &Runner{Parallelism: 1, Timeout: 20 * time.Millisecond}
	results := r.Run(p)
	if results[0].Err == "" || results[0].Completed {
		t.Fatalf("expected timeout error, got %+v", results[0])
	}
	if !strings.Contains(results[0].Err, "timeout") {
		t.Fatalf("unexpected error: %q", results[0].Err)
	}
}

func TestRunnerRecoversPanic(t *testing.T) {
	p := &Plan{ID: "T", Cells: []Cell{{
		Key: Key{Experiment: "T", Config: "boom"},
		Run: func(int64) Result { panic("kaboom") },
	}}}
	results := (&Runner{Parallelism: 1}).Run(p)
	if !strings.Contains(results[0].Err, "kaboom") {
		t.Fatalf("panic not captured: %+v", results[0])
	}
}

func TestRunnerRoundLimitOverride(t *testing.T) {
	var got int64
	p := &Plan{ID: "T", Cells: []Cell{{
		Key:        Key{Experiment: "T", Config: "limit"},
		RoundLimit: 1 << 20,
		Run:        func(limit int64) Result { got = limit; return Result{} },
	}}}
	(&Runner{Parallelism: 1, RoundLimit: 512}).Run(p)
	if got != 512 {
		t.Fatalf("runner round limit not applied: got %d", got)
	}
	(&Runner{Parallelism: 1}).Run(p)
	if got != 1<<20 {
		t.Fatalf("cell round limit not passed: got %d", got)
	}
}

func TestArtifactCanonicalZeroesWall(t *testing.T) {
	p := countingPlan(3, 0)
	r := &Runner{Parallelism: 1}
	start := time.Now()
	tb, results := r.RunTable(p)
	a := NewArtifact(1, true, 1)
	a.Add(p, tb, results, time.Since(start)+time.Microsecond)
	blob1, err := a.Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob1), `"wall_us": 1`) {
		t.Fatalf("canonical artifact kept wall time:\n%s", blob1)
	}
	// A second, slower run must canonicalize to the same bytes.
	tb2, results2 := r.RunTable(countingPlan(3, time.Millisecond))
	b := NewArtifact(1, true, 4)
	b.Parallelism = 1
	b.Add(p, tb2, results2, 5*time.Millisecond)
	blob2, err := b.Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob1) != string(blob2) {
		t.Fatalf("canonical artifacts diverge:\n%s\nvs\n%s", blob1, blob2)
	}
}

// TestArtifactCanonicalZeroesMem pins that the capacity metrics
// (mem_bytes, peak_rss_bytes) survive into the artifact but vanish
// from its canonical form — they are environment measurements, not
// reproducible outputs.
func TestArtifactCanonicalZeroesMem(t *testing.T) {
	p := &Plan{ID: "M", Cells: []Cell{{
		Key: Key{Experiment: "M", Config: "c", Seed: 0},
		Run: func(int64) Result { return Result{MemBytes: 1 << 20, PeakRSS: 1 << 22, Completed: true} },
	}}}
	results := (&Runner{Parallelism: 1}).Run(p)
	a := NewArtifact(1, false, 1)
	a.Add(p, nil, results, time.Microsecond)
	blob, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"mem_bytes": 1048576`) ||
		!strings.Contains(string(blob), `"peak_rss_bytes": 4194304`) {
		t.Fatalf("artifact lost the memory metrics:\n%s", blob)
	}
	canon, err := a.Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(canon), "mem_bytes") || strings.Contains(string(canon), "peak_rss_bytes") {
		t.Fatalf("canonical artifact kept memory metrics:\n%s", canon)
	}
}
