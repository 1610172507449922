package main

// Job specs: the JSON surface of POST /v1/jobs. A spec pins everything
// a run depends on — protocol, workload graph, channel stack, adaptive
// policy, seed — so a job is exactly as reproducible as the library
// call it maps onto. Specs also carry the pooling fingerprint: two
// jobs that differ only in seed, channel, or observability settings
// share one reuse context (the PR-3 zero-rebuild layer).

import (
	"fmt"
	"math"
	"strings"

	"radiocast/internal/channel"
	"radiocast/internal/geo"
	"radiocast/internal/graph"
	"radiocast/internal/harness"
	"radiocast/internal/radio"
)

// GraphSpec describes the workload graph.
type GraphSpec struct {
	// Kind is one of path, grid, cluster, gnp, unitdisk, geo-uniform,
	// geo-cluster. The geo-* kinds build unit-disk graphs over seeded
	// internal/geo point sets and keep the layout around for
	// position-aware features (mobility).
	Kind string `json:"kind"`
	// N is the node count (path, gnp, unitdisk, geo-*).
	N int `json:"n,omitempty"`
	// Rows and Cols size the grid.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Chain and Clique size the cluster chain.
	Chain  int `json:"chain,omitempty"`
	Clique int `json:"clique,omitempty"`
	// P is the G(n,p) edge probability; Radius the unit-disk range
	// (geo-* default: the connectivity radius for N).
	P      float64 `json:"p,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	// Clusters and Spread shape the geo-cluster layout (defaults:
	// sqrt(N) clusters at one connectivity radius of spread).
	Clusters int     `json:"clusters,omitempty"`
	Spread   float64 `json:"spread,omitempty"`
	// Seed drives the randomized generators (gnp, unitdisk, geo-*).
	Seed uint64 `json:"seed,omitempty"`
}

// geoKind reports whether kind is a position-aware layout workload.
func geoKind(kind string) bool { return kind == "geo-uniform" || kind == "geo-cluster" }

// geoRadius resolves the disk radius for a geo-* kind.
func (g GraphSpec) geoRadius() float64 {
	if g.Radius > 0 {
		return g.Radius
	}
	return geo.ConnectivityRadius(g.N)
}

// geoLayout regenerates the deterministic point set for a geo-* kind.
// Callers own the returned layout: mobility walks mutate it in place
// without affecting other jobs on the same spec.
func (g GraphSpec) geoLayout() *geo.Layout {
	if g.Kind == "geo-cluster" {
		clusters := g.Clusters
		if clusters < 1 {
			clusters = int(math.Sqrt(float64(g.N)))
			if clusters < 2 {
				clusters = 2
			}
		}
		spread := g.Spread
		if spread <= 0 {
			spread = g.geoRadius()
		}
		return geo.Clustered(g.N, clusters, spread, g.Seed)
	}
	return geo.Uniform(g.N, g.Seed)
}

// maxGNPN bounds the gnp kind's node count: graph.GNP draws once per
// node pair, O(n^2) whatever p, and 32768 nodes (5.4·10^8 pairs) take
// about 2 s of draws.
const maxGNPN = 1 << 15

// check validates the spec without paying for construction (admission
// control runs on the HTTP handler; build runs on a worker).
func (g GraphSpec) check() error {
	switch g.Kind {
	case "path":
		if g.N < 2 {
			return fmt.Errorf("path: n must be >= 2, got %d", g.N)
		}
	case "grid":
		if g.Rows < 1 || g.Cols < 1 {
			return fmt.Errorf("grid: rows/cols must be positive, got %dx%d", g.Rows, g.Cols)
		}
	case "cluster":
		if g.Chain < 1 || g.Clique < 1 {
			return fmt.Errorf("cluster: chain/clique must be positive, got %d/%d", g.Chain, g.Clique)
		}
	case "gnp":
		if g.N < 2 || g.N > maxGNPN || g.P <= 0 || g.P > 1 {
			return fmt.Errorf("gnp: need 2 <= n <= %d and p in (0,1], got n=%d p=%g", maxGNPN, g.N, g.P)
		}
	case "unitdisk":
		if g.N < 2 || g.Radius <= 0 {
			return fmt.Errorf("unitdisk: need n >= 2 and radius > 0, got n=%d r=%g", g.N, g.Radius)
		}
	case "geo-uniform", "geo-cluster":
		if g.N < 2 {
			return fmt.Errorf("%s: n must be >= 2, got %d", g.Kind, g.N)
		}
		if g.Radius < 0 {
			return fmt.Errorf("%s: radius must be >= 0 (0 = connectivity radius), got %g", g.Kind, g.Radius)
		}
		if g.Kind == "geo-uniform" && (g.Clusters != 0 || g.Spread != 0) {
			return fmt.Errorf("geo-uniform: clusters/spread apply only to geo-cluster")
		}
		if g.Clusters < 0 || g.Spread < 0 {
			return fmt.Errorf("geo-cluster: clusters/spread must be >= 0, got %d/%g", g.Clusters, g.Spread)
		}
	default:
		return fmt.Errorf("unknown graph kind %q (path, grid, cluster, gnp, unitdisk, geo-uniform, geo-cluster)", g.Kind)
	}
	return nil
}

// specN returns the node count the spec will build — computable at
// admission time, without paying for construction.
func (g GraphSpec) specN() int {
	switch g.Kind {
	case "grid":
		return g.Rows * g.Cols
	case "cluster":
		return g.Chain * g.Clique
	default:
		return g.N
	}
}

// build constructs the graph (all generators return connected graphs).
func (g GraphSpec) build() (*graph.Graph, error) {
	if err := g.check(); err != nil {
		return nil, err
	}
	switch g.Kind {
	case "path":
		return graph.Path(g.N), nil
	case "grid":
		return graph.Grid(g.Rows, g.Cols), nil
	case "cluster":
		return graph.ClusterChain(g.Chain, g.Clique), nil
	case "gnp":
		return graph.GNP(g.N, g.P, g.Seed), nil
	case "geo-uniform", "geo-cluster":
		return graph.BuildConnected(geo.NewDisk(g.geoLayout(), g.geoRadius()), g.Seed), nil
	default: // unitdisk; check() rejected everything else
		return geo.UnitDisk(g.N, g.Radius, g.Seed), nil
	}
}

// key is the graph's contribution to the pooling fingerprint.
func (g GraphSpec) key() string {
	return fmt.Sprintf("%s/n=%d/r=%d/c=%d/ch=%d/cl=%d/p=%g/rad=%g/gc=%d/gsp=%g/gs=%d",
		g.Kind, g.N, g.Rows, g.Cols, g.Chain, g.Clique, g.P, g.Radius, g.Clusters, g.Spread, g.Seed)
}

// ChannelSpec describes one layer of the channel-adversity stack.
type ChannelSpec struct {
	// Kind is one of erasure, noisycd, jammer, adaptive-jammer, faults.
	Kind string `json:"kind"`
	// P is the erasure probability.
	P float64 `json:"p,omitempty"`
	// Miss and Spurious are the unreliable-CD rates.
	Miss     float64 `json:"miss,omitempty"`
	Spurious float64 `json:"spurious,omitempty"`
	// Budget and Rate configure the jammers (budget < 0 = unlimited).
	Budget int64   `json:"budget,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
	// LateFrac/MaxDelay/CrashFrac/Horizon configure radio faults.
	LateFrac  float64 `json:"late_frac,omitempty"`
	MaxDelay  int64   `json:"max_delay,omitempty"`
	CrashFrac float64 `json:"crash_frac,omitempty"`
	Horizon   int64   `json:"horizon,omitempty"`
	// N optionally pins the node count the layer was sized for. The
	// faults table is indexed by node ID and panics on shorter tables
	// (Faults.Reset is a no-op precisely because the table is pure
	// per-node configuration), so a mismatch with the graph spec is
	// rejected at admission instead of surfacing as a worker panic.
	N int `json:"n,omitempty"`
	// Seed keys the layer's randomness (defaults to the job seed).
	Seed uint64 `json:"seed,omitempty"`
}

// check validates the layer without constructing it.
func (c ChannelSpec) check() error {
	switch c.Kind {
	case "erasure":
		if c.P <= 0 || c.P >= 1 {
			return fmt.Errorf("erasure: p must be in (0,1), got %g", c.P)
		}
	case "noisycd", "jammer", "adaptive-jammer", "faults":
	default:
		return fmt.Errorf("unknown channel kind %q (erasure, noisycd, jammer, adaptive-jammer, faults)", c.Kind)
	}
	rates := []struct {
		name string
		v    float64
	}{{"miss", c.Miss}, {"spurious", c.Spurious}, {"rate", c.Rate}, {"late_frac", c.LateFrac}, {"crash_frac", c.CrashFrac}}
	for _, r := range rates {
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("%s: %s must be in [0,1], got %g", c.Kind, r.name, r.v)
		}
	}
	if c.MaxDelay < 0 || c.Horizon < 0 {
		return fmt.Errorf("%s: max_delay and horizon must be >= 0, got %d/%d", c.Kind, c.MaxDelay, c.Horizon)
	}
	return nil
}

// build constructs one channel layer for an n-node run from source.
func (c ChannelSpec) build(n int, source graph.NodeID, jobSeed uint64) (radio.Channel, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	seed := c.Seed
	if seed == 0 {
		seed = jobSeed
	}
	switch c.Kind {
	case "erasure":
		return channel.NewErasure(c.P, seed), nil
	case "noisycd":
		return channel.NewNoisyCD(c.Miss, c.Spurious, seed), nil
	case "jammer":
		return channel.NewJammer(c.Budget, c.Rate, seed), nil
	case "adaptive-jammer":
		return channel.NewAdaptiveJammer(c.Budget, 1, seed), nil
	case "faults":
		return channel.RandomFaults(n, source, c.LateFrac, c.MaxDelay, c.CrashFrac, c.Horizon, seed), nil
	default:
		return nil, fmt.Errorf("unknown channel kind %q (erasure, noisycd, jammer, adaptive-jammer, faults)", c.Kind)
	}
}

// AdaptiveSpec enables the loss-adaptive retry layer.
type AdaptiveSpec struct {
	// MaxEpochs caps retry epochs; 0 retries until done (bounded by
	// adapt.UntilDoneCap).
	MaxEpochs int `json:"max_epochs,omitempty"`
}

// MobilitySpec puts a geometric workload's nodes on a random-waypoint
// walk: between adaptive epochs the layout advances Period steps of
// Speed and the unit-disk graph is rebuilt in place (engine Retopo).
// Requires a geo-* graph kind, the adaptive layer, and a
// topology-agnostic protocol (decay).
type MobilitySpec struct {
	// Period is the epoch length in rounds (== waypoint steps between
	// re-layouts).
	Period int64 `json:"period"`
	// Speed is the per-round step length in unit-square coordinates.
	Speed float64 `json:"speed"`
}

// maxJobWorkers caps JobSpec.Workers. The dense engine clamps the
// worker count only to n/64 and builds per-part lists plus a goroutine
// per part on every job, so an unbounded count is a goroutine bomb; 64 is well above any useful intra-run
// parallelism.
const maxJobWorkers = 64

// JobSpec is the POST /v1/jobs request body.
type JobSpec struct {
	// Protocol selects the stack (a harness.Protocols entry).
	Protocol string    `json:"protocol"`
	Graph    GraphSpec `json:"graph"`
	// K is the message count for the k-message protocols (default 1).
	K int `json:"k,omitempty"`
	// Seed drives all protocol randomness.
	Seed uint64 `json:"seed,omitempty"`
	// Source is the broadcasting node (default 0).
	Source int64 `json:"source,omitempty"`
	// RoundLimit caps simulated rounds (0 = the protocol's own budget).
	RoundLimit int64 `json:"round_limit,omitempty"`
	// Workers is the dense engine's worker count (dense-* protocols
	// only, at most maxJobWorkers).
	Workers int `json:"workers,omitempty"`
	// Channel stacks adversity layers (empty = ideal channel).
	Channel []ChannelSpec `json:"channel,omitempty"`
	// Adaptive wraps the run in the retry layer (sparse protocols only).
	Adaptive *AdaptiveSpec `json:"adaptive,omitempty"`
	// Mobility re-layouts a geo-* workload between adaptive epochs.
	Mobility *MobilitySpec `json:"mobility,omitempty"`
	// ObserveEvery is the round stride for progress events (default
	// 1024; lower = finer-grained SSE at more event volume).
	ObserveEvery int64 `json:"observe_every,omitempty"`
}

// validate checks everything that can fail before graph construction.
func (s *JobSpec) validate() error {
	p, ok := harness.LookupProtocol(s.Protocol)
	if !ok {
		return fmt.Errorf("unknown protocol %q (one of %s)", s.Protocol, strings.Join(harness.ProtocolNames(nil), ", "))
	}
	if s.K < 0 {
		return fmt.Errorf("k must be >= 0, got %d", s.K)
	}
	if s.K > 0 && !p.TakesK {
		return fmt.Errorf("k applies only to %s, not %q", strings.Join(harness.ProtocolNames(takesK), " and "), s.Protocol)
	}
	if s.Adaptive != nil && !p.Adaptive {
		return fmt.Errorf("adaptive retry is not supported by %q", s.Protocol)
	}
	if s.Workers != 0 && !p.Dense {
		return fmt.Errorf("workers applies only to the dense-* protocols")
	}
	if s.Workers < 0 || s.Workers > maxJobWorkers {
		return fmt.Errorf("workers must be in [0,%d], got %d", maxJobWorkers, s.Workers)
	}
	if s.Source < 0 {
		return fmt.Errorf("source must be >= 0, got %d", s.Source)
	}
	if s.RoundLimit < 0 {
		return fmt.Errorf("round_limit must be >= 0, got %d", s.RoundLimit)
	}
	if err := s.Graph.check(); err != nil {
		return err
	}
	if s.Mobility != nil {
		if !geoKind(s.Graph.Kind) {
			return fmt.Errorf("mobility needs a position-aware workload (geo-uniform, geo-cluster), not %q", s.Graph.Kind)
		}
		if s.Adaptive == nil {
			return fmt.Errorf("mobility requires the adaptive retry layer (it re-executes per re-layout epoch)")
		}
		if !p.RetopoSafe {
			return fmt.Errorf("mobility is only supported by the topology-agnostic protocols (%s), not %q",
				strings.Join(harness.ProtocolNames(retopoSafe), ", "), s.Protocol)
		}
		if s.Mobility.Period < 1 {
			return fmt.Errorf("mobility: period must be >= 1 round, got %d", s.Mobility.Period)
		}
		if s.Mobility.Speed <= 0 {
			return fmt.Errorf("mobility: speed must be > 0, got %g", s.Mobility.Speed)
		}
	}
	for i, cs := range s.Channel {
		if err := cs.check(); err != nil {
			return fmt.Errorf("channel[%d]: %w", i, err)
		}
		if cs.N != 0 && cs.N != s.Graph.specN() {
			return fmt.Errorf("channel[%d]: layer sized for n=%d but the graph spec builds n=%d", i, cs.N, s.Graph.specN())
		}
	}
	return nil
}

func takesK(p *harness.Protocol) bool     { return p.TakesK }
func retopoSafe(p *harness.Protocol) bool { return p.RetopoSafe }

// k returns the effective message count.
func (s *JobSpec) k() int {
	if s.K < 1 {
		return 1
	}
	return s.K
}

// stride returns the effective observer stride.
func (s *JobSpec) stride() int64 {
	if s.ObserveEvery < 1 {
		return 1024
	}
	return s.ObserveEvery
}

// fingerprint identifies the reuse context a job needs: everything
// that forces a rebuild (protocol, graph, k, source, adaptivity) and
// nothing that doesn't (seed, channel, limits, observability).
func (s *JobSpec) fingerprint() string {
	adaptive := ""
	if s.Adaptive != nil {
		adaptive = "/adaptive"
	}
	if s.Mobility != nil {
		adaptive += fmt.Sprintf("/mob=%d:%g", s.Mobility.Period, s.Mobility.Speed)
	}
	return fmt.Sprintf("%s/k=%d/src=%d%s|%s", s.Protocol, s.k(), s.Source, adaptive, s.Graph.key())
}

// buildChannel assembles the job's channel stack (nil = ideal).
func (s *JobSpec) buildChannel(n int) (radio.Channel, error) {
	if len(s.Channel) == 0 {
		return nil, nil
	}
	if len(s.Channel) == 1 {
		return s.Channel[0].build(n, graph.NodeID(s.Source), s.Seed)
	}
	stack := make(channel.Stack, len(s.Channel))
	for i, cs := range s.Channel {
		ch, err := cs.build(n, graph.NodeID(s.Source), s.Seed)
		if err != nil {
			return nil, err
		}
		stack[i] = ch
	}
	return stack, nil
}
