package main

// Fixed-spec result pins: one small fixed-seed job per protocol,
// covering plain, adaptive and mobility runs. The pinned counters are
// simulation outputs, so a refactor of how the daemon names and builds
// its stacks must leave every one of them unchanged.

import (
	"testing"
)

// specPins is the fixed-spec table: one job body per row with its
// pinned counters. FuzzJobSpec seeds its corpus from the bodies.
var specPins = []struct {
	name, spec string
	rounds     int64
	completed  bool
	deliveries int64
	covered    int
}{
	{"decay", `{"protocol": "decay", "graph": {"kind": "cluster", "chain": 6, "clique": 6}, "seed": 1}`,
		61, true, 206, 36},
	{"decay/adaptive", `{"protocol": "decay", "graph": {"kind": "cluster", "chain": 4, "clique": 4}, "seed": 2,
		"channel": [{"kind": "erasure", "p": 0.3, "seed": 9}], "adaptive": {"max_epochs": 8}}`,
		37, true, 58, 16},
	{"decay/mobility", `{"protocol": "decay", "seed": 11, "round_limit": 4096,
		"graph": {"kind": "geo-cluster", "n": 150, "clusters": 5, "spread": 0.03, "radius": 0.08, "seed": 4},
		"adaptive": {"max_epochs": 12}, "mobility": {"period": 64, "speed": 0.005}}`,
		195, true, 2825, 150},
	{"cr", `{"protocol": "cr", "graph": {"kind": "grid", "rows": 6, "cols": 6}, "seed": 3}`,
		41, true, 160, 36},
	{"cr/adaptive", `{"protocol": "cr", "graph": {"kind": "grid", "rows": 5, "cols": 5}, "seed": 4,
		"channel": [{"kind": "erasure", "p": 0.4, "seed": 5}], "adaptive": {"max_epochs": 6}}`,
		43, true, 118, 25},
	{"gst", `{"protocol": "gst", "graph": {"kind": "grid", "rows": 6, "cols": 6}, "seed": 3}`,
		52, true, 203, 36},
	{"gst/adaptive", `{"protocol": "gst", "graph": {"kind": "cluster", "chain": 4, "clique": 4}, "seed": 6,
		"channel": [{"kind": "erasure", "p": 0.4, "seed": 7}], "adaptive": {"max_epochs": 6}}`,
		54, true, 55, 16},
	{"k-known", `{"protocol": "k-known", "k": 3, "graph": {"kind": "grid", "rows": 5, "cols": 5}, "seed": 2}`,
		316, true, 1055, 25},
	{"cd", `{"protocol": "cd", "graph": {"kind": "cluster", "chain": 4, "clique": 4}, "seed": 2}`,
		15868, true, 978, 16},
	{"cd/adaptive", `{"protocol": "cd", "graph": {"kind": "cluster", "chain": 4, "clique": 4}, "seed": 3,
		"channel": [{"kind": "erasure", "p": 0.3, "seed": 8}], "adaptive": {"max_epochs": 4}}`,
		31482, true, 730, 16},
	{"k-cd", `{"protocol": "k-cd", "k": 2, "graph": {"kind": "cluster", "chain": 3, "clique": 4}, "seed": 2}`,
		15752, true, 758, 12},
	{"k-cd/adaptive", `{"protocol": "k-cd", "k": 2, "graph": {"kind": "cluster", "chain": 3, "clique": 4}, "seed": 5,
		"channel": [{"kind": "erasure", "p": 0.3, "seed": 6}], "adaptive": {"max_epochs": 4}}`,
		32495, true, 741, 12},
	{"dense-decay", `{"protocol": "dense-decay", "graph": {"kind": "grid", "rows": 20, "cols": 20}, "seed": 5, "workers": 2}`,
		175, true, 399, 400},
	{"dense-cr", `{"protocol": "dense-cr", "graph": {"kind": "grid", "rows": 20, "cols": 20}, "seed": 5, "workers": 2}`,
		136, true, 399, 400},
	{"dense-wave", `{"protocol": "dense-wave", "graph": {"kind": "cluster", "chain": 10, "clique": 6}, "seed": 5,
		"channel": [{"kind": "erasure", "p": 0.2, "seed": 3}]}`,
		20, true, 54, 60},
	{"dense-gst", `{"protocol": "dense-gst", "graph": {"kind": "grid", "rows": 20, "cols": 20}, "seed": 5, "workers": 2}`,
		190, true, 2796, 400},
}

func TestFixedSpecPins(t *testing.T) {
	ts, _ := newTestServer(t, 1, len(specPins))
	for _, p := range specPins {
		st := waitDone(t, ts, submit(t, ts, p.spec))
		if st.State != StateDone {
			t.Fatalf("%s: state %s (err %q)", p.name, st.State, st.Error)
		}
		r := st.Result
		if r.Rounds != p.rounds || r.Completed != p.completed || r.Deliveries != p.deliveries || r.Covered != p.covered {
			t.Errorf("%s: got rounds=%d completed=%v deliveries=%d covered=%d, pinned %d/%v/%d/%d",
				p.name, r.Rounds, r.Completed, r.Deliveries, r.Covered, p.rounds, p.completed, p.deliveries, p.covered)
		}
	}
}
