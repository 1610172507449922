package harness

import (
	"testing"

	"radiocast/internal/exp"
)

// TestE22WorkerInvariance pins the geometric sweep onto the dense
// engine's determinism contract: the E22 table is byte-identical
// sequentially and with the parallel delivery pass — including the
// qudg rows, whose RangeErasure DropLink runs concurrently.
func TestE22WorkerInvariance(t *testing.T) {
	run := func(workers int) string {
		p := E22Plan(ScaleConfig{Workers: workers}, 1, true)
		tb, _ := (&exp.Runner{Parallelism: 1}).RunTable(p)
		return tb.String()
	}
	seq := run(1)
	par := run(4)
	if seq != par {
		t.Fatalf("E22 tables diverge across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", seq, par)
	}
}

// TestE22MaxNCapsSweep pins ScaleConfig.MaxN threading and the
// per-workload geometry cap: udg-cluster and qudg stop at 10^5, and
// only the plain udg workload scales on to MaxN.
func TestE22MaxNCapsSweep(t *testing.T) {
	checkMaxNCaps(t, e22Sweep, map[string]int{"udg-cluster": 100_000, "qudg": 100_000})
}

// TestE23AdaptiveBeatsOneshot is the dynamics layer's acceptance
// check: under mobility with per-period re-layout, adaptive
// informed-set carryover must strictly beat the one-shot schedule's
// coverage (which is frozen at the source's blob once its single wave
// expires). Compared per (period, seed) pair; the adaptive arm is
// also sanity-checked to never cover less than its own epoch 0 (==
// the oneshot run).
func TestE23AdaptiveBeatsOneshot(t *testing.T) {
	p := E23Plan(2, true)
	results := (&exp.Runner{Parallelism: 1}).Run(p)
	idx := map[exp.Key]exp.Result{}
	anyStrict := false
	for _, r := range results {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Key, r.Err)
		}
		idx[r.Key] = r
	}
	for _, key := range []string{"T=64", "T=256"} {
		for s := uint64(0); s < 2; s++ {
			one := idx[exp.Key{Experiment: "E23", Config: "oneshot/" + key, Seed: s}]
			ada := idx[exp.Key{Experiment: "E23", Config: "adaptive/" + key, Seed: s}]
			if ada.Value < one.Value {
				t.Errorf("%s seed %d: adaptive coverage %g below oneshot %g — carryover lost ground",
					key, s, ada.Value, one.Value)
			}
			if ada.Value > one.Value {
				anyStrict = true
			}
			if one.Value <= 0 || one.Value >= 1 {
				t.Errorf("%s seed %d: oneshot coverage %g — expected a strict fraction (source blob only)",
					key, s, one.Value)
			}
			if ada.Epochs < 2 {
				t.Errorf("%s seed %d: adaptive ran %d epochs — the retry layer never re-executed", key, s, ada.Epochs)
			}
		}
	}
	if !anyStrict {
		t.Error("adaptive never strictly beat oneshot on any (period, seed) cell")
	}
}

// TestE23Deterministic pins that a mobility cell — layout, waypoint
// walk, per-period Retopo, adaptive epochs — is an exact function of
// its seed.
func TestE23Deterministic(t *testing.T) {
	a := runE23Cell("adaptive", 64, 512, 3, 512)
	b := runE23Cell("adaptive", 64, 512, 3, 512)
	if a != b {
		t.Fatalf("same-seed mobility cells diverge:\n%+v\n%+v", a, b)
	}
	c := runE23Cell("adaptive", 64, 512, 4, 512)
	if a.Value == c.Value && a.Rounds == c.Rounds {
		t.Fatalf("different-seed mobility cells identical: %+v", a)
	}
}
