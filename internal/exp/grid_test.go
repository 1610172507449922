package exp

import (
	"fmt"
	"testing"

	"radiocast/internal/stats"
)

func TestGridAddIsConfigMajorSeedMinor(t *testing.T) {
	g := NewGrid("G", "grid", 3)
	run := func(seed uint64, limit int64) Result { return Rounds(int64(seed), true) }
	g.Add("a", 7, 11, run)
	g.Add("b", 0, 0, run)
	if len(g.Cells) != 6 {
		t.Fatalf("%d cells, want 6", len(g.Cells))
	}
	for i, c := range g.Cells {
		want := Key{Experiment: "G", Config: []string{"a", "b"}[i/3], Seed: uint64(i % 3)}
		if c.Key != want {
			t.Fatalf("cell %d key %v, want %v", i, c.Key, want)
		}
	}
	if c := g.Cells[1]; c.RoundLimit != 7 || c.Cost != 11 {
		t.Fatalf("cell 1 limit/cost %d/%d, want 7/11", c.RoundLimit, c.Cost)
	}
}

func TestGridAddOneKeepsSeed(t *testing.T) {
	g := NewGrid("G", "grid", 3)
	var got uint64
	g.AddOne("only", 5, 0, 0, func(seed uint64, limit int64) Result {
		got = seed
		return Result{}
	})
	if len(g.Cells) != 1 || g.Cells[0].Key.Seed != 5 {
		t.Fatalf("cells %+v, want one cell at seed 5", g.Cells)
	}
	g.Cells[0].Run(0)
	if got != 5 {
		t.Fatalf("run saw seed %d, want 5", got)
	}
}

func TestGridRunsAfterRunAll(t *testing.T) {
	g := NewGrid("G", "grid", 4)
	configs := []string{"x", "y", "z"}
	for ci, config := range configs {
		g.Add(config, 0, int64(ci), func(seed uint64, limit int64) Result {
			return Rounds(int64(100*ci)+int64(seed), true)
		})
	}
	g.AddOne("tail", 9, 0, 1000, func(seed uint64, limit int64) Result { return Rounds(int64(seed), false) })
	g.Assemble = func([]Result) *stats.Table { return &stats.Table{} }
	results := (&Runner{Parallelism: 4}).RunAll([]*Plan{g.Plan})[0]
	for ci, config := range configs {
		runs := g.Runs(results, config)
		if len(runs) != 4 {
			t.Fatalf("%s: %d runs, want 4", config, len(runs))
		}
		for s, r := range runs {
			if r.Key.Config != config || r.Key.Seed != uint64(s) || r.Rounds != int64(100*ci+s) {
				t.Fatalf("%s seed %d: got %+v", config, s, r)
			}
		}
	}
	if tail := g.Runs(results, "tail"); len(tail) != 1 || tail[0].Rounds != 9 {
		t.Fatalf("tail runs %+v", tail)
	}
}

func TestRunsCounts(t *testing.T) {
	rs := Runs{
		{Rounds: 10, Completed: true, Value: 1},
		{Rounds: 20, Completed: false, Value: 2},
		{Rounds: 30, Completed: true, Value: 3},
	}
	if rs.Done() != 2 || rs.AllDone() || rs.OK() != "2/3" {
		t.Fatalf("Done %d AllDone %v OK %s, want 2 false 2/3", rs.Done(), rs.AllDone(), rs.OK())
	}
	if got := fmt.Sprint(rs.Rounds()); got != "[10 30]" {
		t.Fatalf("Rounds %s, want [10 30]", got)
	}
	if got := fmt.Sprint(rs.Values()); got != "[1 2 3]" {
		t.Fatalf("Values %s, want [1 2 3]", got)
	}
	if got := Mean(rs.Each(func(r Result) float64 { return float64(r.Rounds) })); got != 20 {
		t.Fatalf("mean rounds %v, want 20", got)
	}
	if !rs[:1].AllDone() || rs[:1].OK() != "1/1" {
		t.Fatal("one completed run is not all done")
	}
}

func TestMeanOfEmptySample(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", Mean(nil))
	}
	if got := stats.F(MeanOrDash(nil)); got != "-" {
		t.Fatalf("MeanOrDash(nil) renders %q, want -", got)
	}
	if got := MeanOrDash([]float64{1, 2}); got != 1.5 {
		t.Fatalf("MeanOrDash = %v, want 1.5", got)
	}
}
