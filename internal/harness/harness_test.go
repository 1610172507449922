package harness

import (
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"radiocast/internal/exp"
	"radiocast/internal/graph"
	"radiocast/internal/rings"
)

// update regenerates the golden fingerprints instead of checking them:
// go test ./internal/harness -run 'TestAllExperimentsQuick|TestAssembleSyntheticPins' -update
var update = flag.Bool("update", false, "rewrite testdata/golden instead of comparing against it")

// goldenQuick holds the SHA-256 of every experiment's quick
// single-seed table. The rendered tables carry only reproducible
// outputs (rounds, completion, coverage), so any change to a digest is
// a change in simulation behaviour and needs a stated reason. Under
// "<ID>/cells" it also holds the SHA-256 of each experiment's
// canonical artifact JSON, which pins the config strings, the cell
// order and the per-cell fields the tables leave out (deliveries,
// busy/silent rounds, max frontier, coverage, epochs).
var goldenQuick = filepath.Join("testdata", "golden", "quick.json")

// goldenAssemble holds, under "<ID>/quick" and "<ID>/full", the
// SHA-256 of each plan's ordered (Key, RoundLimit) list at seeds 3 plus
// the table its Assemble renders from synthetic results: the
// multi-seed aggregation (means, "-" against 0, k/n columns) that the
// single-seed quick tables cannot see.
var goldenAssemble = filepath.Join("testdata", "golden", "assemble.json")

// readGolden loads a golden digest file; under -update it returns an
// empty map instead.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	want := map[string]string{}
	if *update {
		return want
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// finishGolden writes got to path under -update; otherwise it reports
// every golden key that is not of the form id+suffix for an experiment
// id and one of the suffixes.
func finishGolden(t *testing.T, path string, want, got map[string]string, suffixes ...string) {
	t.Helper()
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	keys := map[string]bool{}
	for _, e := range All() {
		for _, sfx := range suffixes {
			keys[e.ID+sfx] = true
		}
	}
	for id := range want {
		if !keys[id] {
			t.Errorf("%s lists %s, which is no longer an experiment", path, id)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	want := readGolden(t, goldenQuick)
	got := map[string]string{}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			p := e.Plan(1, true)
			tb, results := (&exp.Runner{Parallelism: 1}).RunTable(p)
			if tb == nil || len(tb.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			out := tb.String()
			if !strings.Contains(out, "==") {
				t.Fatalf("%s table did not render", e.ID)
			}
			t.Logf("\n%s", out)
			got[e.ID] = digest([]byte(out))
			if !*update && got[e.ID] != want[e.ID] {
				t.Fatalf("%s golden digest changed: got %s, want %s", e.ID, got[e.ID], want[e.ID])
			}
			a := exp.NewArtifact(1, true, 1)
			a.Add(p, tb, results, 0)
			blob, err := a.Canonical().JSON()
			if err != nil {
				t.Fatal(err)
			}
			cells := e.ID + "/cells"
			got[cells] = digest(blob)
			if !*update && got[cells] != want[cells] {
				t.Fatalf("%s golden cell digest changed: got %s, want %s", e.ID, got[cells], want[cells])
			}
		})
	}
	finishGolden(t, goldenQuick, want, got, "", "/cells")
}

// syntheticResult derives a cell's result from the SHA-512 of its key,
// so a plan's Assemble can be pinned without running a simulation.
// About one configuration in five has no completed seed, which
// exercises every mean's empty-sample branch. Payload carries the
// epoch count as an int, the shape E18's cells use.
func syntheticResult(k exp.Key) exp.Result {
	cfg := sha256.Sum256([]byte(k.Experiment + "/" + k.Config))
	h := sha512.Sum512([]byte(k.String()))
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(h[8*i:]) }
	epochs := 1 + int(u(4)%4)
	return exp.Result{
		Key:       k,
		Rounds:    int64(1 + u(0)%100_000),
		Completed: cfg[0]%5 != 0 && u(1)%4 != 0,
		Value:     float64(u(2)%8) / 4,
		Dropped:   int64(u(3) % 500),
		Jammed:    int64(u(5) % 500),
		Epochs:    epochs,
		Covered:   int(u(6) % 1000),
		Payload:   epochs,
	}
}

// TestAssembleSyntheticPins pins every plan's cell list and multi-seed
// table assembly at seeds 3, quick and full, against
// testdata/golden/assemble.json. No simulation runs: each cell's
// result is syntheticResult of its key.
func TestAssembleSyntheticPins(t *testing.T) {
	want := readGolden(t, goldenAssemble)
	got := map[string]string{}
	for _, quick := range []bool{true, false} {
		size := "full"
		if quick {
			size = "quick"
		}
		for _, e := range All() {
			p := e.Plan(3, quick)
			var b, costs strings.Builder
			results := make([]exp.Result, len(p.Cells))
			for i, c := range p.Cells {
				fmt.Fprintf(&b, "%s limit=%d\n", c.Key, c.RoundLimit)
				fmt.Fprintf(&costs, "%s cost=%d\n", c.Key, c.Cost)
				results[i] = syntheticResult(c.Key)
			}
			b.WriteString(p.Assemble(results).String())
			id := e.ID + "/" + size
			got[id] = digest([]byte(b.String()))
			got[id+"/costs"] = digest([]byte(costs.String()))
			for _, k := range []string{id, id + "/costs"} {
				if !*update && got[k] != want[k] {
					t.Errorf("%s digest changed: got %s, want %s", k, got[k], want[k])
				}
			}
		}
	}
	finishGolden(t, goldenAssemble, want, got, "/quick", "/full", "/quick/costs", "/full/costs")
}

// TestRoundLimitReachesEveryBroadcastCell pins that Runner.RoundLimit
// caps every broadcast cell, including the ones whose own cap is a
// compiled schedule (E1's th11 column, E8, A3) or is computed inside
// the cell (E9, A1).
func TestRoundLimitReachesEveryBroadcastCell(t *testing.T) {
	const limit = 50
	ids := map[string]bool{"E1": true, "E8": true, "E9": true, "A1": true, "A3": true}
	for _, e := range All() {
		if !ids[e.ID] {
			continue
		}
		for _, r := range (&exp.Runner{Parallelism: 1, RoundLimit: limit}).Run(e.Plan(1, true)) {
			if r.Err != "" || r.Rounds > limit {
				t.Errorf("%s: %d rounds (err %q), want at most %d", r.Key, r.Rounds, r.Err, limit)
			}
		}
	}
}

func TestE1CrossoverShape(t *testing.T) {
	// The headline claim at reproduction scale: on high-diameter
	// cluster chains, the GST broadcast (structure in place) beats the
	// Decay and CR baselines.
	g := graph.ClusterChain(32, 8)
	d := graph.Eccentricity(g, 0)
	decayR, ok1, _ := cellStack("decay", g, d, StackOpts{}).RunFrom(nil, nil, 1, 1<<22)
	crR, ok2, _ := cellStack("cr", g, d, StackOpts{}).RunFrom(nil, nil, 1, 1<<22)
	gstR, ok3, _ := NewGSTSingleRun(g, false, 0).RunFrom(nil, nil, 1, 1<<22)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("some protocol incomplete")
	}
	if gstR >= crR || gstR >= decayR {
		t.Fatalf("no crossover: gst=%d cr=%d decay=%d at D=%d", gstR, crR, decayR, d)
	}
	t.Logf("D=%d: gst=%d cr=%d decay=%d", d, gstR, crR, decayR)
}

func TestRunnersVerifyPayloads(t *testing.T) {
	g := graph.Grid(5, 5)
	if _, ok, _ := NewGSTMultiRun(g, 6, 0).RunFrom(nil, nil, 3, 1<<20); !ok {
		t.Fatal("Theorem 1.2 runner failed")
	}
	if _, ok := RunGSTMultiRouting(g, 4, 3, 1<<20); !ok {
		t.Fatal("routing baseline failed")
	}
}

func TestTheorem11RunnerDecomposition(t *testing.T) {
	g := graph.ClusterChain(4, 4)
	d := graph.Eccentricity(g, 0)
	cfg := rings.DefaultConfig(g.N(), d, 0, 1)
	if cfg.WaveRounds()+cfg.BuildRounds()+cfg.SpreadRounds() != cfg.TotalRounds() {
		t.Fatal("budget decomposition inconsistent")
	}
	rounds, ok, _ := NewTheorem11RunCfg(g, cfg, 0).RunFrom(nil, nil, 2, 0)
	if !ok {
		t.Fatal("Theorem 1.1 incomplete")
	}
	if rounds > cfg.TotalRounds() {
		t.Fatal("rounds exceed budget")
	}
}

func TestPlainStoreContent(t *testing.T) {
	ps := NewPlainStore(2, fakeIntn{})
	if ps.Done() || ps.Fresh() != nil {
		t.Fatal("empty store should be idle")
	}
	ps.OnReceive(PlainPacket{Index: 0, Payload: 7}, 0)
	ps.OnReceive(PlainPacket{Index: 1, Payload: 8}, 0)
	if !ps.Done() {
		t.Fatal("store with all messages not done")
	}
	pkt := ps.Fresh()
	if pkt == nil {
		t.Fatal("Fresh returned nil with held messages")
	}
	if _, err := strconv.Atoi("0"); err != nil {
		t.Fatal("unreachable")
	}
}

type fakeIntn struct{}

func (fakeIntn) Intn(n int) int { return 0 }
