package exp

import (
	"fmt"
	"math"

	"radiocast/internal/stats"
)

// Grid compiles the common plan shape: a list of configurations, each
// run once per seed 0..Seeds-1, config-major and seed-minor. Assemble
// reads a configuration's results back by position with Runs; no key
// is rebuilt and no map is consulted, because the runner stores every
// result at its cell's index.
type Grid struct {
	*Plan
	Seeds int
	spans map[string][2]int // config -> [first, end) in Cells
}

// NewGrid starts the plan of experiment id with seeds cells per
// configuration.
func NewGrid(id, title string, seeds int) *Grid {
	return &Grid{Plan: &Plan{ID: id, Title: title}, Seeds: seeds, spans: map[string][2]int{}}
}

// Add appends one cell per seed for config, in seed order. limit is
// each cell's RoundLimit and cost its Cost; run executes one seed.
func (g *Grid) Add(config string, limit, cost int64, run func(seed uint64, limit int64) Result) {
	for s := 0; s < g.Seeds; s++ {
		g.AddOne(config, uint64(s), limit, cost, run)
	}
}

// AddOne appends a single cell for config with a fixed seed. A
// configuration's cells must be added consecutively.
func (g *Grid) AddOne(config string, seed uint64, limit, cost int64, run func(seed uint64, limit int64) Result) {
	i := len(g.Cells)
	span, ok := g.spans[config]
	if !ok {
		span = [2]int{i, i}
	} else if span[1] != i {
		panic(fmt.Sprintf("exp: %s/%s cells are not consecutive", g.ID, config))
	}
	g.spans[config] = [2]int{span[0], i + 1}
	g.Cells = append(g.Cells, Cell{
		Key:        Key{Experiment: g.ID, Config: config, Seed: seed},
		RoundLimit: limit,
		Cost:       cost,
		Run:        func(limit int64) Result { return run(seed, limit) },
	})
}

// Runs returns config's results, in the order its cells were added.
func (g *Grid) Runs(results []Result, config string) Runs {
	span, ok := g.spans[config]
	if !ok {
		panic(fmt.Sprintf("exp: %s has no configuration %s", g.ID, config))
	}
	return results[span[0]:span[1]]
}

// Runs is one configuration's results, one per seed.
type Runs []Result

// Rounds returns the round counts of the completed runs.
func (rs Runs) Rounds() []float64 {
	var xs []float64
	for _, r := range rs {
		if r.Completed {
			xs = append(xs, float64(r.Rounds))
		}
	}
	return xs
}

// Done counts the completed runs.
func (rs Runs) Done() int {
	n := 0
	for _, r := range rs {
		if r.Completed {
			n++
		}
	}
	return n
}

// AllDone reports whether every run completed.
func (rs Runs) AllDone() bool { return rs.Done() == len(rs) }

// OK renders the completed count as "k/n".
func (rs Runs) OK() string { return fmt.Sprintf("%d/%d", rs.Done(), len(rs)) }

// Values returns every run's Value.
func (rs Runs) Values() []float64 { return rs.Each(func(r Result) float64 { return r.Value }) }

// Each returns f of every run.
func (rs Runs) Each(f func(Result) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

// Mean is the sample mean of xs, 0 for an empty sample.
func Mean(xs []float64) float64 { return stats.Summarize(xs, 0, 0).Mean }

// MeanOrDash is the sample mean of xs, NaN for an empty sample, which
// stats.F renders as "-".
func MeanOrDash(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Mean(xs)
}
