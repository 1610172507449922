package harness

// E22/E23: the geometric workloads. E22 is the static geometric scale
// sweep — the dense protocol catalog on unit-disk graphs over seeded
// point layouts (uniform at the connectivity radius, clustered blobs,
// and the quasi-unit-disk band driven by channel.RangeErasure) up to
// n = 10^6, through the same streaming-CSR path as E19/E20. E23 is
// the mobility/churn trial: a collision wave on an initially
// disconnected clustered layout whose nodes walk random waypoints,
// with topology re-derived (geo.NewDisk + Retopo) every T rounds —
// comparing the one-shot schedule (one wave, then silence: the
// spatial analog of E16's abandoned late-waking radio) against
// adaptive informed-set carryover re-launching the wave each period.

import (
	"fmt"

	"radiocast/internal/adapt"
	"radiocast/internal/channel"
	"radiocast/internal/exp"
	"radiocast/internal/geo"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
	"radiocast/internal/stats"
)

// e22Seed keys every E22 layout, so all protocol cells of one
// (workload, n) measure the same geometry (the E19 idiom).
const e22Seed = 0xe22

// e22GeoCap bounds the clustered and quasi-unit-disk workloads at
// 10^5: the clustered blobs are near-cliques whose edge count grows
// superlinearly, and the QUDG graph, built at 1.6x the radius, carries
// ~2.6x the unit-disk edge count. Only the plain unit-disk workload
// runs to 10^6.
const e22GeoCap = 100_000

// e22QUDGBand stretches the QUDG outer radius to 1.6x the reliable
// radius — every band link exists in the CSR and RangeErasure decides
// per round whether the fringe delivery happens.
const e22QUDGBand = 1.6

// e22Graph builds one geometric workload at size n, returning the
// channel that completes it (nil except for the qudg band). All three
// stitch components via BuildConnected so the randomized broadcasts
// can complete; at the connectivity radius the stitch is almost
// always empty.
func e22Graph(workload string, n int, seed uint64) (*graph.Graph, radio.Channel) {
	rc := geo.ConnectivityRadius(n)
	switch workload {
	case "udg-cluster":
		// sqrt(n) blobs of sqrt(n) nodes, blob box ~ the radius: dense
		// near-cliques stitched into a sparse macro-graph — the
		// geometric rendition of the cluster-chain workload.
		clusters := 1
		for clusters*clusters < n {
			clusters++
		}
		l := geo.Clustered(n, clusters, rc, e22Seed)
		return graph.BuildConnected(geo.NewDisk(l, rc), e22Seed), nil
	case "qudg":
		l := geo.Uniform(n, e22Seed)
		outer := e22QUDGBand * rc
		g := graph.BuildConnected(geo.NewDisk(l, outer), e22Seed)
		return g, channel.NewRangeErasure(l.X, l.Y, rc, outer, rng.Mix(seed, 0xe22))
	default: // "udg"
		l := geo.Uniform(n, e22Seed)
		return graph.BuildConnected(geo.NewDisk(l, rc), e22Seed), nil
	}
}

// e22Sweep is the geometric scale sweep: the dense SoA catalog on
// unit-disk workloads (udg to sc.MaxN; the clustered and band
// workloads cap at 10^5). The qudg rows run under
// channel.RangeErasure — reliable inside the connectivity radius,
// distance-ramped erasure across the band — a link-only channel like
// E20's flat erasure, so it stays on the engine's ideal collect/deliver
// path, but with loss that is a function of geometry instead of a
// single rate. Every workload's diameter shape is the grid's
// (unit-disk diameter ~ √n). qudg cells weigh double: the 1.6x-radius
// band graph carries ~2.6x the unit-disk edges, and a qudg cell at
// n = 10^4..10^5 takes 2.3-2.9x the wall time of the udg cell of the
// same protocol and n (radiobench -only E22 -seeds 1 -scalemaxn 100000,
// 2 vCPUs, go1.24).
var e22Sweep = scaleSweep{
	id:    "E22",
	title: "Geometric scale sweep: dense catalog on unit-disk layouts (udg/cluster/qudg)",
	table: "E22: geometric scale sweep (unit-disk layouts, streaming CSR)",
	comment: "one dense broadcast per (protocol, workload, n) cell over seeded point layouts: udg at the\n" +
		"connectivity radius, udg-cluster blobs, qudg with distance-ramped band erasure (RangeErasure);\n" +
		"byte-identical at any worker count; bytes/node, peak RSS, rounds/sec ride the JSON artifact",
	workloads: []string{"udg", "udg-cluster", "qudg"},
	caps:      map[string]int{"udg-cluster": e22GeoCap, "qudg": e22GeoCap},
	cols:      denseCols,
	build:     e22Graph,
	diameter:  func(_ string, n int) int { return e19Diameter("grid", n) },
	weight:    map[string]int64{"qudg": 2},
}

// E22Plan is the geometric scale sweep over e22Sweep.
func E22Plan(sc ScaleConfig, seeds int, quick bool) *exp.Plan { return e22Sweep.plan(sc, seeds, quick) }

// E23 parameters: six blobs of n/6 nodes, blob box 0.04 against a
// radio range of 0.06 — each blob is internally near-complete and the
// blobs start mutually disconnected. Nodes walk random waypoints at
// 0.002/round, so over the 2048-round timeline each node travels ~4
// unit lengths and the blob structure fully dissolves (into a
// supercritical but sub-connectivity-threshold soup: coverage, not
// completion, is the measured quantity).
const (
	e23N        = 600
	e23Clusters = 6
	e23Spread   = 0.04
	e23Radius   = 0.06
	e23Speed    = 0.002
	e23Total    = 2048
)

// e23Modes orders the mode columns of E23.
var e23Modes = []string{"oneshot", "adaptive"}

// E23Plan is the mobility/churn trial: a collision wave on a
// clustered layout re-derived every T rounds. The oneshot arm runs
// the wave once with a T-round horizon and then the network is silent
// while the nodes keep moving — coverage frozen at the source's blob.
// The adaptive arm re-launches the wave every period from the carried
// informed set, on the topology as of that period (waypoint advance +
// geo.NewDisk + Retopo through the relayout hook), so radios that
// drift into range of an informed one are recovered. Both arms are
// identical through the first period; everything after is what the
// carryover buys.
func E23Plan(seeds int, quick bool) *exp.Plan {
	periods := []int64{64, 128, 256, 512}
	total := int64(e23Total)
	if quick {
		periods = []int64{64, 256}
		total = 1024
	}
	p := exp.NewGrid("E23", "Mobility/churn: oneshot vs adaptive wave coverage across re-layout periods", seeds)
	type cfg struct {
		mode   string
		period int64
	}
	var cfgs []cfg
	for _, period := range periods {
		for _, mode := range e23Modes {
			cfgs = append(cfgs, cfg{mode, period})
		}
	}
	config := func(c cfg) string { return fmt.Sprintf("%s/T=%d", c.mode, c.period) }
	for _, c := range cfgs {
		p.Add(config(c), total, budgetCost(e23N, total), func(seed uint64, limit int64) exp.Result {
			return runE23Cell(c.mode, c.period, total, seed, limit)
		})
	}
	p.Assemble = func(results []exp.Result) *stats.Table {
		t := &stats.Table{
			Title: "E23: mobility/churn — oneshot vs adaptive wave coverage under re-layout",
			Comment: "clustered layout (6 blobs, mutually disconnected at t=0), random-waypoint motion, topology\n" +
				"re-derived every T rounds (Retopo); oneshot = one T-round wave then silence, adaptive =\n" +
				"informed-set carryover re-launching the wave each period on the period's topology",
			Header: []string{"T", "mode", "coverage", "epochs", "rounds"},
		}
		for _, c := range cfgs {
			runs := p.Runs(results, config(c))
			epochs := runs.Each(func(r exp.Result) float64 { return float64(r.Epochs) })
			t.AddRow(fmt.Sprintf("%d", c.period), c.mode, stats.F(exp.MeanOrDash(runs.Values())),
				stats.F(exp.MeanOrDash(epochs)), stats.F(exp.MeanOrDash(runs.Each(allRounds))))
		}
		return t
	}
	return p.Plan
}

// runE23Cell executes one mobility cell. Randomness enters only
// through the layout and waypoint seeds — the wave itself draws
// nothing.
func runE23Cell(mode string, period, total int64, seed uint64, limit int64) exp.Result {
	if total > limit && limit > 0 {
		total = limit
	}
	l := geo.Clustered(e23N, e23Clusters, e23Spread, rng.Mix(0xe23, seed))
	g := graph.FromStream(geo.NewDisk(l, e23Radius))
	if mode == "oneshot" {
		wr := NewWaveRun(g, 0, period)
		rounds, ok, _ := wr.RunFrom(nil, nil, seed, period)
		res := exp.Rounds(rounds, ok)
		res.Epochs = 1
		res.Covered = wr.Coverage()
		res.Value = float64(wr.Coverage()) / float64(e23N)
		return res
	}
	wp := geo.NewWaypoint(l, e23Speed, rng.Mix(0xe23, seed, 1))
	ar := NewAdaptiveWave(g, nil, seed, 0, period)
	ar.SetRelayout(func(epoch int) {
		wp.Advance(int(period))
		ng := graph.FromStream(geo.NewDisk(l, e23Radius))
		off, edges := ng.CSR()
		ar.Retopo(off, edges)
	})
	res := adaptResult(adapt.Run(ar, adapt.Policy{MaxEpochs: int(total / period), EpochLimit: period}))
	res.Value = float64(res.Covered) / float64(e23N)
	return res
}
