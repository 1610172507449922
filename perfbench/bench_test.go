package main

// Self-test at tiny sizes: every metric BENCHMARK.json names is
// emitted with its unit, measurement never changes an op's output, the
// work counters repeat exactly, and daemon-dense shuts radiocastd
// down cleanly.

import (
	"encoding/json"
	"os"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func smallConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.2, trace: trace, sizes: smallSizes,
		root: "..", out: t.TempDir()}
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for i := range names {
		if names[i] != workloads[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(smallConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, name, got, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, got.Value)
				}
			}
		}
	}
}

func TestMapCoversEveryMetric(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var m struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]string          `json:"end_to_end"`
		PerLayer  map[string]json.RawMessage `json:"per_layer"`
	}
	readJSON(t, "map.json", &m)
	for _, w := range bf.Workloads {
		if m.Workloads[w.Name] == nil {
			t.Errorf("map.json has no workload %s", w.Name)
		}
	}
	for _, e := range bf.EndToEnd {
		if m.EndToEnd[e.Name] == "" {
			t.Errorf("map.json has no end-to-end metric %s", e.Name)
		}
	}
	for _, p := range bf.PerLayer {
		if m.PerLayer[p.Name] == nil {
			t.Errorf("map.json has no per-layer metric %s", p.Name)
		}
	}
}

func inProcessKinds(t *testing.T, workload string) []opKind {
	if workload == "adverse-gnp" {
		g, ecc := adverseGraph(smallSizes, 7)
		return adverseGNP(g, ecc, 7)
	}
	return sweepKinds(workload, smallSizes, 7)
}

func TestTracingLeavesOutputsUnchanged(t *testing.T) {
	for _, w := range []string{"sweep-gst", "sweep-gnp", "adverse-gnp"} {
		for _, k := range inProcessKinds(t, w) {
			for v := 0; v < 3; v++ {
				plain := k.run(newTracer(false), v)
				tr := newTracer(true)
				root := tr.begin(k.name)
				traced := k.run(tr, v)
				tr.end(root)
				if plain.out != traced.out {
					t.Errorf("%s %s v%d: untraced %+v, traced %+v", w, k.name, v, plain.out, traced.out)
				}
				if plain.stats != traced.stats {
					t.Errorf("%s %s v%d: engine stats differ under tracing", w, k.name, v)
				}
				if traced.c.EdgeVisits == 0 {
					t.Errorf("%s %s v%d: no edge visits counted", w, k.name, v)
				}
				if traced.out.Rounds != traced.stats.Rounds {
					t.Errorf("%s %s v%d: %d rounds, %d engine rounds", w, k.name, v, traced.out.Rounds, traced.stats.Rounds)
				}
			}
		}
	}
}

func TestCountersRepeatExactly(t *testing.T) {
	counters := []string{"graph.edges", "proto.deliver_calls", "radio.rounds", "radio.edge_visits",
		"radio.delivery_ratio", "radio.collision_obs", "radio.silent_frac", "radio.listener_words",
		"channel.droplink_calls", "channel.drop_ratio", "channel.observe_calls", "channel.observe_identity_frac"}
	for _, w := range []string{"sweep-gnp", "adverse-gnp"} {
		a, err := runWorkload(smallConfig(t, w, true))
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig(t, w, true)
		cfg.seconds = 0.5 // a different number of passes
		b, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range counters {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s = %v then %v", w, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

func TestDaemonStopsCleanly(t *testing.T) {
	cfg := smallConfig(t, "daemon-dense", false)
	bin, err := buildDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix := daemonMix(cfg.sizes)
	s, err := setUpDaemon(cfg, bin, mix)
	if err != nil {
		t.Fatal(err)
	}
	j := &job{spec: mix[0].withSeed(cfg.seed, 0, 0)}
	s.d.run(j)
	if !j.ok || !checkJob(cfg, j) {
		t.Errorf("job failed: %s", j.failure)
	}
	if err := s.d.stop(); err != nil {
		t.Fatal(err)
	}
	if code := s.d.cmd.ProcessState.ExitCode(); code != 0 {
		t.Errorf("radiocastd exit code %d", code)
	}
}
