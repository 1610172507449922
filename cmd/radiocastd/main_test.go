package main

// End-to-end tests over httptest: submit → poll → SSE → metrics, spec
// validation, queue back-pressure, and determinism of job results
// across the reuse-context pool (two identical specs must report
// identical counters even when one hits the pooled context).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"radiocast/internal/obs"
)

func newTestServer(t *testing.T, workers, queue int) (*httptest.Server, *Manager) {
	t.Helper()
	lg, err := obs.NewLogger(io.Discard, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	mgr := NewManager(workers, queue, lg, reg)
	t.Cleanup(mgr.Shutdown)
	srv := newServer(mgr, reg)
	ts := httptest.NewServer(srv.apiMux())
	t.Cleanup(ts.Close)
	return ts, mgr
}

func submit(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
		t.Fatalf("submit: bad response %s (%v)", body, err)
	}
	return out.ID
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

const decaySpec = `{
	"protocol": "decay",
	"graph": {"kind": "cluster", "chain": 6, "clique": 6},
	"seed": %d,
	"observe_every": 16
}`

func TestJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, 2, 16)
	id := submit(t, ts, fmt.Sprintf(decaySpec, 1))
	st := waitDone(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Completed || st.Result.Rounds <= 0 {
		t.Fatalf("implausible result: %+v", st.Result)
	}
	if st.Result.Covered != 36 {
		t.Fatalf("covered = %d, want 36", st.Result.Covered)
	}
	if st.Result.BusyRounds+st.Result.SilentRounds != st.Result.Rounds {
		t.Fatalf("busy+silent != rounds: %+v", st.Result)
	}
}

func TestPooledDeterminism(t *testing.T) {
	// One worker → the second identical job MUST hit the pooled context;
	// its result must be byte-identical to the first (fresh-build) run.
	ts, _ := newTestServer(t, 1, 16)
	a := waitDone(t, ts, submit(t, ts, fmt.Sprintf(decaySpec, 7)))
	b := waitDone(t, ts, submit(t, ts, fmt.Sprintf(decaySpec, 7)))
	ra, rb := *a.Result, *b.Result
	ra.WallMicros, rb.WallMicros = 0, 0
	if ra != rb {
		t.Fatalf("pooled rerun diverged:\nfresh  %+v\npooled %+v", ra, rb)
	}
}

func TestSSEEvents(t *testing.T) {
	ts, _ := newTestServer(t, 1, 16)
	id := submit(t, ts, fmt.Sprintf(decaySpec, 3))
	waitDone(t, ts, id)
	// Terminal job: the stream replays the full history and closes.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	var types []string
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			types = append(types, ev)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			lastData = data
		}
	}
	joined := strings.Join(types, ",")
	if !strings.Contains(joined, "state") || !strings.Contains(joined, "round") || !strings.Contains(joined, "done") {
		t.Fatalf("event stream missing milestones: %s", joined)
	}
	// The final event is the terminal state transition; the done event
	// (with the result payload) precedes it.
	if types[len(types)-1] != "state" || types[len(types)-2] != "done" {
		t.Fatalf("stream tail = %v", types[len(types)-4:])
	}
	var last Event
	if err := json.Unmarshal([]byte(lastData), &last); err != nil {
		t.Fatalf("last SSE data is not JSON: %v\n%s", err, lastData)
	}
}

func TestAdaptiveJobEmitsEpochs(t *testing.T) {
	ts, _ := newTestServer(t, 1, 16)
	spec := `{
		"protocol": "decay",
		"graph": {"kind": "cluster", "chain": 4, "clique": 4},
		"seed": 2,
		"channel": [{"kind": "erasure", "p": 0.3, "seed": 9}],
		"adaptive": {"max_epochs": 8},
		"observe_every": 64
	}`
	id := submit(t, ts, spec)
	st := waitDone(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
	if st.Result.Epochs < 1 {
		t.Fatalf("epochs = %d, want >= 1", st.Result.Epochs)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte("event: epoch")) {
		t.Fatalf("no epoch events in stream:\n%s", body)
	}
}

// TestMobilityJob runs the dynamics layer end-to-end: a clustered
// sub-connectivity layout on a random-waypoint walk, re-built between
// adaptive epochs via engine Retopo. The job reports per-epoch events,
// and — because the walk mutates the pooled layout in place — the
// pooled rerun must still be byte-identical to the fresh-build run.
func TestMobilityJob(t *testing.T) {
	ts, _ := newTestServer(t, 1, 16)
	spec := `{
		"protocol": "decay",
		"graph": {"kind": "geo-cluster", "n": 150, "clusters": 5, "spread": 0.03, "radius": 0.08, "seed": 4},
		"seed": 11,
		"adaptive": {"max_epochs": 12},
		"mobility": {"period": 64, "speed": 0.005},
		"observe_every": 64,
		"round_limit": 4096
	}`
	a := waitDone(t, ts, submit(t, ts, spec))
	if a.State != StateDone {
		t.Fatalf("state = %s (err %q)", a.State, a.Error)
	}
	if a.Result.Epochs < 2 {
		t.Fatalf("epochs = %d, want >= 2 (the re-layout path never ran)", a.Result.Epochs)
	}
	if a.Result.Covered < 2 || a.Result.Covered > 150 {
		t.Fatalf("covered = %d, want a plausible node count", a.Result.Covered)
	}
	b := waitDone(t, ts, submit(t, ts, spec))
	ra, rb := *a.Result, *b.Result
	ra.WallMicros, rb.WallMicros = 0, 0
	if ra != rb {
		t.Fatalf("pooled mobility rerun diverged:\nfresh  %+v\npooled %+v", ra, rb)
	}
}

// TestGeoJob pins the static geometric workloads end-to-end: stitched
// unit-disk graphs, full coverage on any protocol.
func TestGeoJob(t *testing.T) {
	ts, _ := newTestServer(t, 1, 16)
	spec := `{
		"protocol": "dense-wave",
		"graph": {"kind": "geo-uniform", "n": 300, "seed": 2},
		"seed": 3,
		"workers": 2,
		"observe_every": 32
	}`
	st := waitDone(t, ts, submit(t, ts, spec))
	if st.State != StateDone || !st.Result.Completed {
		t.Fatalf("geo job failed: %+v (err %q)", st.Result, st.Error)
	}
	if st.Result.Covered != 300 {
		t.Fatalf("covered = %d, want 300", st.Result.Covered)
	}
}

func TestDenseJob(t *testing.T) {
	ts, _ := newTestServer(t, 1, 16)
	spec := `{
		"protocol": "dense-decay",
		"graph": {"kind": "grid", "rows": 48, "cols": 48},
		"seed": 5,
		"workers": 4,
		"observe_every": 32
	}`
	st := waitDone(t, ts, submit(t, ts, spec))
	if st.State != StateDone || !st.Result.Completed {
		t.Fatalf("dense job failed: %+v (err %q)", st.Result, st.Error)
	}
	if st.Result.Covered != 48*48 {
		t.Fatalf("covered = %d, want %d", st.Result.Covered, 48*48)
	}
	if st.Result.MaxFrontier < 1 {
		t.Fatalf("max frontier = %d", st.Result.MaxFrontier)
	}
}

// TestDenseCatalogJobs runs each new dense port end-to-end: full
// coverage, and (one worker, two identical submits) pooled reruns
// byte-identical to the fresh-build run — the pooled-determinism
// contract extended to the whole dense-* catalog.
func TestDenseCatalogJobs(t *testing.T) {
	for name, spec := range map[string]string{
		"dense-cr": `{
			"protocol": "dense-cr",
			"graph": {"kind": "grid", "rows": 24, "cols": 24},
			"seed": 5,
			"workers": 2,
			"observe_every": 32
		}`,
		"dense-wave": `{
			"protocol": "dense-wave",
			"graph": {"kind": "cluster", "chain": 12, "clique": 8},
			"seed": 5,
			"workers": 2,
			"observe_every": 32
		}`,
		"dense-gst": `{
			"protocol": "dense-gst",
			"graph": {"kind": "grid", "rows": 24, "cols": 24},
			"seed": 5,
			"workers": 2,
			"observe_every": 32
		}`,
	} {
		t.Run(name, func(t *testing.T) {
			ts, _ := newTestServer(t, 1, 16)
			a := waitDone(t, ts, submit(t, ts, spec))
			if a.State != StateDone || !a.Result.Completed {
				t.Fatalf("%s job failed: %+v (err %q)", name, a.Result, a.Error)
			}
			wantCovered := 24 * 24
			if name == "dense-wave" {
				wantCovered = 12 * 8
			}
			if a.Result.Covered != wantCovered {
				t.Fatalf("covered = %d, want %d", a.Result.Covered, wantCovered)
			}
			b := waitDone(t, ts, submit(t, ts, spec))
			ra, rb := *a.Result, *b.Result
			ra.WallMicros, rb.WallMicros = 0, 0
			if ra != rb {
				t.Fatalf("pooled rerun diverged:\nfresh  %+v\npooled %+v", ra, rb)
			}
		})
	}
}

func TestSpecValidation(t *testing.T) {
	ts, _ := newTestServer(t, 1, 4)
	for name, spec := range map[string]string{
		"unknown protocol": `{"protocol": "gossip", "graph": {"kind": "path", "n": 8}}`,
		"bad graph":        `{"protocol": "decay", "graph": {"kind": "torus", "n": 8}}`,
		"gnp over bound":   `{"protocol": "decay", "graph": {"kind": "gnp", "n": 32769, "p": 0.001}}`,
		"bad channel":      `{"protocol": "decay", "graph": {"kind": "path", "n": 8}, "channel": [{"kind": "noise"}]}`,
		"unknown field":    `{"protocol": "decay", "graph": {"kind": "path", "n": 8}, "frobnicate": 1}`,
		"k on decay":       `{"protocol": "decay", "k": 3, "graph": {"kind": "path", "n": 8}}`,
		"adaptive k-known": `{"protocol": "k-known", "adaptive": {}, "graph": {"kind": "path", "n": 8}}`,
		"adaptive dense":   `{"protocol": "dense-cr", "adaptive": {}, "graph": {"kind": "path", "n": 8}}`,
		"workers sparse":   `{"protocol": "cr", "workers": 4, "graph": {"kind": "path", "n": 8}}`,
		"mobility non-geo": `{"protocol": "decay", "adaptive": {}, "mobility": {"period": 8, "speed": 0.01}, "graph": {"kind": "path", "n": 8}}`,
		"mobility no adaptive": `{"protocol": "decay", "mobility": {"period": 8, "speed": 0.01},
			"graph": {"kind": "geo-uniform", "n": 8}}`,
		"mobility wrong protocol": `{"protocol": "cr", "adaptive": {}, "mobility": {"period": 8, "speed": 0.01},
			"graph": {"kind": "geo-uniform", "n": 8}}`,
		"mobility zero speed": `{"protocol": "decay", "adaptive": {}, "mobility": {"period": 8},
			"graph": {"kind": "geo-uniform", "n": 8}}`,
		"geo-uniform clusters": `{"protocol": "decay", "graph": {"kind": "geo-uniform", "n": 8, "clusters": 3}}`,
		"channel n mismatch": `{"protocol": "decay", "graph": {"kind": "grid", "rows": 3, "cols": 3},
			"channel": [{"kind": "faults", "n": 8, "late_frac": 0.1, "max_delay": 4, "horizon": 64}]}`,
		"negative workers": `{"protocol": "dense-decay", "workers": -1, "graph": {"kind": "path", "n": 8}}`,
		"workers over cap": `{"protocol": "dense-decay", "workers": 1048576, "graph": {"kind": "grid", "rows": 500, "cols": 500}}`,
		"noisycd miss > 1": `{"protocol": "cd", "graph": {"kind": "path", "n": 8}, "channel": [{"kind": "noisycd", "miss": 1.5}]}`,
		"noisycd spurious < 0": `{"protocol": "cd", "graph": {"kind": "path", "n": 8},
			"channel": [{"kind": "noisycd", "spurious": -0.1}]}`,
		"jammer rate > 1": `{"protocol": "decay", "graph": {"kind": "path", "n": 8}, "channel": [{"kind": "jammer", "budget": 8, "rate": 2}]}`,
		"faults late_frac > 1": `{"protocol": "decay", "graph": {"kind": "path", "n": 8},
			"channel": [{"kind": "faults", "late_frac": 1.1, "max_delay": 4}]}`,
		"faults crash_frac < 0": `{"protocol": "decay", "graph": {"kind": "path", "n": 8},
			"channel": [{"kind": "faults", "crash_frac": -1, "horizon": 4}]}`,
		"faults negative max_delay": `{"protocol": "decay", "graph": {"kind": "path", "n": 8},
			"channel": [{"kind": "faults", "late_frac": 0.1, "max_delay": -4}]}`,
		"faults negative horizon": `{"protocol": "decay", "graph": {"kind": "path", "n": 8},
			"channel": [{"kind": "faults", "crash_frac": 0.1, "horizon": -1}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", name, resp.StatusCode, body)
		}
	}
	// The unknown-protocol message lists the names in table order, the
	// same on every submission.
	const want = `unknown protocol "gossip" (one of decay, cr, gst, k-known, cd, k-cd, ` +
		`dense-decay, dense-cr, dense-wave, dense-gst)`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"protocol": "gossip", "graph": {"kind": "path", "n": 8}}`))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if out.Error != want {
			t.Fatalf("submission %d: error %q, want %q", i, out.Error, want)
		}
	}
}

// TestOversizeSpecRejected pins the request-body bound: a spec larger
// than maxSpecBytes is refused with 413 before it is decoded in full.
func TestOversizeSpecRejected(t *testing.T) {
	ts, _ := newTestServer(t, 1, 4)
	pad := strings.Repeat(" ", maxSpecBytes)
	body := `{"protocol": "decay",` + pad + `"graph": {"kind": "path", "n": 8}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, msg)
	}
	// A spec just under the bound is still accepted.
	id := submit(t, ts, `{"protocol": "decay",`+strings.Repeat(" ", maxSpecBytes-128)+`"graph": {"kind": "path", "n": 8}}`)
	if st := waitDone(t, ts, id); st.State != StateDone {
		t.Fatalf("state = %s (err %q)", st.State, st.Error)
	}
}

func TestBadGraphFailsJob(t *testing.T) {
	ts, _ := newTestServer(t, 1, 4)
	// Source out of range passes validate() but fails context build.
	spec := `{"protocol": "decay", "graph": {"kind": "path", "n": 8}, "source": 99}`
	st := waitDone(t, ts, submit(t, ts, spec))
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("state = %s err = %q, want failed", st.State, st.Error)
	}
}

func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t, 1, 16)
	waitDone(t, ts, submit(t, ts, fmt.Sprintf(decaySpec, 11)))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`radiocastd_jobs_submitted_total{protocol="decay"} 1`,
		`radiocastd_jobs_completed_total{status="done"} 1`,
		`radiocastd_engine_rounds_total{protocol="decay"}`,
		`radiocastd_engine_deliveries_total{protocol="decay"}`,
		"radiocastd_job_wall_seconds_bucket",
		"radiocastd_heap_alloc_bytes",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
}

func TestHealthEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, 1, 4)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", resp.StatusCode)
	}
}

func TestQueueBackpressure(t *testing.T) {
	// Zero-worker manager would block forever; instead use 1 worker and
	// a tiny queue, then overfill it with slow-ish jobs.
	lg, _ := obs.NewLogger(io.Discard, "json", "error")
	reg := obs.NewRegistry()
	mgr := NewManager(1, 1, lg, reg)
	defer mgr.Shutdown()
	srv := newServer(mgr, reg)
	ts := httptest.NewServer(srv.apiMux())
	defer ts.Close()

	spec := `{"protocol": "decay", "graph": {"kind": "gnp", "n": 3000, "p": 0.004, "seed": 1}, "seed": 1}`
	saw503 := false
	for i := 0; i < 20 && !saw503; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			saw503 = true
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if !saw503 {
		t.Skip("queue never filled (machine too fast); back-pressure path not exercised")
	}
}

// TestFinishedJobsEvicted: the index holds at most maxFinishedJobs
// finished jobs. Finishing one more drops the oldest finished job, so
// its status and events answer 404 while the newer ones still answer.
func TestFinishedJobsEvicted(t *testing.T) {
	old := maxFinishedJobs
	t.Cleanup(func() { maxFinishedJobs = old })
	maxFinishedJobs = 2
	ts, _ := newTestServer(t, 1, 16)
	code := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	var ids []string
	for seed := 1; seed <= maxFinishedJobs+2; seed++ {
		id := submit(t, ts, fmt.Sprintf(decaySpec, seed))
		if st := waitDone(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s: state %s (err %q)", id, st.State, st.Error)
		}
		ids = append(ids, id)
		evicted := max(0, len(ids)-maxFinishedJobs)
		for i, j := range ids {
			want := http.StatusOK
			if i < evicted {
				want = http.StatusNotFound
			}
			for _, path := range []string{"/v1/jobs/" + j, "/v1/jobs/" + j + "/events"} {
				if got := code(path); got != want {
					t.Fatalf("after %d jobs: GET %s = %d, want %d", len(ids), path, got, want)
				}
			}
		}
	}
}

// TestJobsListOldestFirst: GET /v1/jobs lists the indexed jobs in
// submission order, on every call, before and after a retention
// eviction drops the oldest finished job.
func TestJobsListOldestFirst(t *testing.T) {
	old := maxFinishedJobs
	t.Cleanup(func() { maxFinishedJobs = old })
	maxFinishedJobs = 3
	ts, _ := newTestServer(t, 1, 16)
	list := func() []string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct{ Jobs []JobStatus }
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(body.Jobs))
		for i, st := range body.Jobs {
			ids[i] = st.ID
		}
		return ids
	}
	var ids []string
	for seed := 1; seed <= maxFinishedJobs+1; seed++ {
		id := submit(t, ts, fmt.Sprintf(decaySpec, seed))
		waitDone(t, ts, id)
		ids = append(ids, id)
		want := ids[max(0, len(ids)-maxFinishedJobs):]
		for call := 0; call < 8; call++ {
			if got := list(); !slices.Equal(got, want) {
				t.Fatalf("after %d jobs, list call %d: %v, want %v", len(ids), call, got, want)
			}
		}
	}
}
