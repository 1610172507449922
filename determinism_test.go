package radiocast

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"radiocast/internal/exp"
	"radiocast/internal/harness"
)

// Reproducibility is a core library contract: identical (graph,
// options, seed) must give identical round counts for every protocol.

func TestDeterminismAcrossProtocols(t *testing.T) {
	g := NewClusterChain(6, 6)
	runs := []struct {
		name string
		fn   func() (Result, error)
	}{
		{"decay", func() (Result, error) { return DecayBroadcast(g, Options{Seed: 9}) }},
		{"cr", func() (Result, error) { return CRBroadcast(g, Options{Seed: 9}) }},
		{"gst", func() (Result, error) { return BroadcastKnownTopology(g, Options{Seed: 9}) }},
		{"cd", func() (Result, error) { return BroadcastCD(g, Options{Seed: 9}) }},
		{"k-known", func() (Result, error) { return BroadcastK(g, 4, Options{Seed: 9}) }},
		{"k-cd", func() (Result, error) { return BroadcastKCD(g, 4, Options{Seed: 9}) }},
		{"cd-pipelined", func() (Result, error) {
			return BroadcastCD(g, Options{Seed: 9, PipelinedBoundaries: true})
		}},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			a, err := r.fn()
			if err != nil || !a.Completed {
				t.Fatalf("first run: %+v %v", a, err)
			}
			b, err := r.fn()
			if err != nil || !b.Completed {
				t.Fatalf("second run: %+v %v", b, err)
			}
			if a.Rounds != b.Rounds {
				t.Fatalf("nondeterministic: %d vs %d rounds", a.Rounds, b.Rounds)
			}
		})
	}
}

// Channel adversity must preserve the reproducibility contract:
// identical (graph, channel parameters, seed) give identical rounds
// and identical Dropped/Jammed counters, and a nonzero adversity
// leaves its fingerprint in the counters.
func TestChannelDeterminism(t *testing.T) {
	g := NewClusterChain(6, 6)
	runs := []struct {
		name string
		fn   func() (Result, error)
	}{
		{"decay-loss", func() (Result, error) {
			return DecayBroadcast(g, Options{Seed: 5, Channel: ErasureChannel(0.2, 11)})
		}},
		{"cr-jam", func() (Result, error) {
			return CRBroadcast(g, Options{Seed: 5, Channel: JammerChannel(64, 0.5, false, 12)})
		}},
		{"cd-noisycd", func() (Result, error) {
			return BroadcastCD(g, Options{Seed: 5, Channel: NoisyCDChannel(0.05, 0.001, 13)})
		}},
		{"gst-stack", func() (Result, error) {
			return BroadcastKnownTopology(g, Options{Seed: 5, Channel: StackChannels(
				ErasureChannel(0.1, 14), JammerChannel(32, 0.25, true, 15))})
		}},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			a, err := r.fn()
			if err != nil {
				t.Fatal(err)
			}
			b, err := r.fn()
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("nondeterministic under adversity:\n%+v\n%+v", a, b)
			}
			if a.Dropped == 0 && a.Jammed == 0 {
				t.Fatalf("adversarial channel left no fingerprint: %+v", a)
			}
		})
	}
}

// TestPipelinedBuildDeterminism pins E6's contract at the runner
// level: both boundary-construction modes are exact functions of
// (graph, config, seed), and the pipelined schedule strictly
// undercuts the sequential one on every D >= 4 workload.
func TestPipelinedBuildDeterminism(t *testing.T) {
	g := NewGrid(4, 8)
	const d = 10 // eccentricity of grid-4x8 from node 0
	for _, pipelined := range []bool{false, true} {
		a := harness.NewGSTPipelinedRun(g, g.N(), d, 1, pipelined).Run(7)
		b := harness.NewGSTPipelinedRun(g, g.N(), d, 1, pipelined).Run(7)
		if a != b {
			t.Fatalf("pipelined=%v nondeterministic:\n%+v\n%+v", pipelined, a, b)
		}
	}
	seq := harness.NewGSTPipelinedRun(g, g.N(), d, 1, false).Run(7)
	pipe := harness.NewGSTPipelinedRun(g, g.N(), d, 1, true).Run(7)
	if pipe.Budget >= seq.Budget {
		t.Fatalf("pipelined budget %d not below sequential %d", pipe.Budget, seq.Budget)
	}
	if pipe.Rounds >= seq.Rounds {
		t.Fatalf("pipelined completed in %d rounds, sequential in %d", pipe.Rounds, seq.Rounds)
	}
	// The facade flag drives the same machinery.
	ga, err := BuildGSTDistributed(NewGrid(3, 4), Options{Seed: 2, Scale: 2, PipelinedBoundaries: true})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := BuildGSTDistributed(NewGrid(3, 4), Options{Seed: 2, Scale: 2, PipelinedBoundaries: true})
	if err != nil {
		t.Fatal(err)
	}
	if ga.ConstructionRounds != gb.ConstructionRounds {
		t.Fatalf("facade pipelined builds diverge: %d vs %d rounds", ga.ConstructionRounds, gb.ConstructionRounds)
	}
	for v := range ga.Tree.Parent {
		if ga.Tree.Parent[v] != gb.Tree.Parent[v] || ga.Tree.Rank[v] != gb.Tree.Rank[v] {
			t.Fatalf("facade pipelined builds diverge at node %d", v)
		}
	}
}

func TestSeedsChangeOutcomes(t *testing.T) {
	g := NewGNP(60, 0.1, 4)
	a, err := DecayBroadcast(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	different := false
	for seed := uint64(2); seed < 8; seed++ {
		b, err := DecayBroadcast(g, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if b.Rounds != a.Rounds {
			different = true
			break
		}
	}
	if !different {
		t.Fatal("seven seeds produced identical Decay round counts; randomness is suspect")
	}
}

// TestParallelRunnerMatchesSequential pins the orchestration contract
// against history: every experiment's quick single-seed plan runs once
// through one 8-worker pool with a 120 s per-cell timeout (Runner.RunAll
// with a goroutine and a timer per cell, what radiobench -parallel
// -timeout 120s runs), and each table and canonical per-cell artifact
// must match its digest in internal/harness/testdata/golden/quick.json,
// the file TestAllExperimentsQuick checks the sequential run against.
// Output is ordered by cell key, never by completion order.
func TestParallelRunnerMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	blob, err := os.ReadFile(filepath.Join("internal", "harness", "testdata", "golden", "quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	all := harness.All()
	plans := make([]*exp.Plan, len(all))
	for i, e := range all {
		plans[i] = e.Plan(1, true)
	}
	results := (&exp.Runner{Parallelism: 8, Timeout: 120 * time.Second}).RunAll(plans)
	for i, e := range all {
		t.Run(e.ID, func(t *testing.T) {
			tb := plans[i].Assemble(results[i])
			if got := digest([]byte(tb.String())); got != want[e.ID] {
				t.Fatalf("parallel table digest %s, golden %s:\n%s", got, want[e.ID], tb)
			}
			a := exp.NewArtifact(1, true, 1) // the golden artifact's header
			a.Add(plans[i], tb, results[i], 0)
			blob, err := a.Canonical().JSON()
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(blob); got != want[e.ID+"/cells"] {
				t.Fatalf("parallel cells digest %s, golden %s", got, want[e.ID+"/cells"])
			}
		})
	}
}

// TestRunAllMatchesSequential pins the global-pool contract: feeding
// the cells of SEVERAL experiments through one longest-cell-first
// worker pool (Runner.RunAll — what cmd/radiobench runs) must produce
// exactly the tables and canonical artifacts of per-plan sequential
// execution, at any worker count. This is the cross-experiment
// scheduler's determinism guarantee: admission order and worker count
// affect only wall clock, never output bytes.
func TestRunAllMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	ids := map[string]bool{"E9": true, "E11": true, "E12": true, "E16": true}
	var selected []harness.Experiment
	for _, e := range harness.All() {
		if ids[e.ID] {
			selected = append(selected, e)
		}
	}
	run := func(workers int, useRunAll bool) []byte {
		plans := make([]*exp.Plan, len(selected))
		for i, e := range selected {
			plans[i] = e.Plan(1, true)
		}
		runner := &exp.Runner{Parallelism: workers}
		var all [][]exp.Result
		if useRunAll {
			all = runner.RunAll(plans)
		} else {
			all = make([][]exp.Result, len(plans))
			for i, p := range plans {
				all[i] = runner.Run(p)
			}
		}
		a := exp.NewArtifact(1, true, 0)
		for i, p := range plans {
			a.Add(p, p.Assemble(all[i]), all[i], time.Duration(0))
		}
		blob, err := a.Canonical().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	want := run(1, false)
	for _, workers := range []int{1, 8} {
		if got := run(workers, true); string(got) != string(want) {
			t.Fatalf("RunAll(workers=%d) diverges from sequential per-plan execution", workers)
		}
	}
}
