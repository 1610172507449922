// Command radiosim runs one broadcast protocol on one workload graph
// and prints the outcome — a quick way to poke at the library.
//
// Usage:
//
//	radiosim -graph clusterchain -n 256 -protocol cd -seed 1
//	radiosim -graph grid -n 64 -protocol k-known -k 8
//	radiosim -protocol decay -loss 0.2            # 20% per-link loss
//	radiosim -protocol cd -cdnoise 0.1            # 10% missed ⊤
//	radiosim -protocol decay -jam 500 -jamadaptive
//	radiosim -protocol cd -pipelined               # §2.2.4 boundary pipelining
//
// Protocols: decay, cr, gst (known-topology single message),
// cd (Theorem 1.1), k-known (Theorem 1.2), k-cd (Theorem 1.3).
// Graphs: path, grid, clusterchain, udg, gnp, star, plus the seeded
// geometric layouts geo-uniform and geo-cluster (unit-disk graphs over
// internal/geo point sets, built by the grid-bucketed streaming
// builder). -band > 1 on a geo-* graph switches to the quasi-unit-disk
// model: the graph is built at band x the connectivity radius and a
// position-aware RangeErasure channel erases band links with
// distance-ramped probability.
// -pipelined switches the distributed GST builds inside cd/k-cd to the
// Section 2.2.4 even/odd boundary pipeline wherever it shortens them.
//
// Channel adversity: -loss, -jam, -cdnoise/-cdspurious, and -faults
// each enable one model of internal/channel when nonzero; the active
// models are stacked. -channel ideal forces the ideal channel
// regardless.
//
// -adaptive wraps the run in the loss-adaptive retry layer: the
// schedule re-executes in epochs, each re-layering from every
// already-informed radio, until the broadcast completes or -maxepochs
// epochs elapse (0 = until done). Supported by every protocol except
// k-known.
//
// -logformat/-loglevel route run lifecycle events (job.start,
// job.done) to stderr through the shared internal/obs logger; the
// default warn level keeps stderr quiet, and the human-readable result
// on stdout is unaffected.
//
// Incoherent flag combinations are rejected up front with a usage
// message (-pipelined on a protocol without a distributed GST build,
// -jamadaptive without a -jam budget, -maxepochs without -adaptive,
// -adaptive with k-known). Exit codes: 0 on a completed broadcast, 3
// when the broadcast fails to complete within its round budget, 1 on
// invalid graph/protocol/channel arguments, 2 on malformed or
// incoherent flags (matching the flag package's own exit).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"radiocast"
	"radiocast/internal/graph"
	"radiocast/internal/harness"
	"radiocast/internal/obs"
)

// buildGraph materialises the workload. Geometric kinds additionally
// return their layout (nil otherwise) so the channel stack can attach
// position-aware models; band stretches their disk radius to band x
// the connectivity radius (the QUDG outer range).
func buildGraph(kind string, n int, seed uint64, band float64) (*radiocast.Graph, *radiocast.Layout, error) {
	switch kind {
	case "path":
		return radiocast.NewPath(n), nil, nil
	case "grid":
		side := int(math.Sqrt(float64(n)))
		if side < 2 {
			side = 2
		}
		return radiocast.NewGrid(side, (n+side-1)/side), nil, nil
	case "clusterchain":
		clique := 8
		chain := n / clique
		if chain < 2 {
			chain = 2
		}
		return radiocast.NewClusterChain(chain, clique), nil, nil
	case "udg":
		return radiocast.NewUnitDisk(n, radiocast.GeoConnectivityRadius(n), seed), nil, nil
	case "gnp":
		p := 4 * math.Log(float64(n)) / float64(n)
		return radiocast.NewGNP(n, p, seed), nil, nil
	case "star":
		return graph.Star(n), nil, nil
	case "geo-uniform":
		l := radiocast.NewUniformLayout(n, seed)
		return radiocast.UnitDiskGraph(l, band*radiocast.GeoConnectivityRadius(n), seed), l, nil
	case "geo-cluster":
		clusters := int(math.Sqrt(float64(n)))
		if clusters < 2 {
			clusters = 2
		}
		rc := radiocast.GeoConnectivityRadius(n)
		l := radiocast.NewClusteredLayout(n, clusters, rc, seed)
		return radiocast.UnitDiskGraph(l, band*rc, seed), l, nil
	default:
		return nil, nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}

// channelFlags holds the adversity configuration parsed from flags.
type channelFlags struct {
	mode        string
	loss        float64
	jam         int64
	jamAdaptive bool
	cdNoise     float64
	cdSpurious  float64
	faults      float64
	band        float64
}

// build assembles the channel stack (nil = ideal). Each model is
// enabled by its nonzero flag; -channel ideal disables everything.
// layout is non-nil only for geometric workloads; with -band > 1 it
// feeds the distance-ramped RangeErasure band between the reliable
// connectivity radius and band x that radius.
func (cf channelFlags) build(n int, seed uint64, layout *radiocast.Layout) (radiocast.Channel, []string, error) {
	if cf.mode == "ideal" {
		return nil, nil, nil
	}
	if cf.mode != "auto" {
		return nil, nil, fmt.Errorf("unknown -channel mode %q (want auto or ideal)", cf.mode)
	}
	var models []radiocast.Channel
	var names []string
	if cf.band > 1 && layout != nil {
		rc := radiocast.GeoConnectivityRadius(layout.N())
		models = append(models, radiocast.RangeErasureChannel(layout, rc, cf.band*rc, seed^0xd157))
		names = append(names, fmt.Sprintf("qudg-band=%g", cf.band))
	}
	if cf.loss > 0 {
		models = append(models, radiocast.ErasureChannel(cf.loss, seed^0x10c5))
		names = append(names, fmt.Sprintf("loss=%g", cf.loss))
	}
	if cf.jam != 0 {
		models = append(models, radiocast.JammerChannel(cf.jam, 0.5, cf.jamAdaptive, seed^0x4a77))
		policy := "oblivious"
		if cf.jamAdaptive {
			policy = "adaptive"
		}
		names = append(names, fmt.Sprintf("jam=%d(%s)", cf.jam, policy))
	}
	if cf.cdNoise > 0 || cf.cdSpurious > 0 {
		models = append(models, radiocast.NoisyCDChannel(cf.cdNoise, cf.cdSpurious, seed^0xcd01))
		names = append(names, fmt.Sprintf("cdnoise=%g/%g", cf.cdNoise, cf.cdSpurious))
	}
	if cf.faults > 0 {
		models = append(models, radiocast.FaultChannel(n, 0, cf.faults, 256, cf.faults/2, 1<<20, seed^0xfa07))
		names = append(names, fmt.Sprintf("faults=%g", cf.faults))
	}
	switch len(models) {
	case 0:
		return nil, nil, nil
	case 1:
		return models[0], names, nil
	default:
		return radiocast.StackChannels(models...), names, nil
	}
}

// fatalUsage rejects an incoherent flag combination: it prints the
// reason and the flag usage, then exits 2 (the flag package's own exit
// code for malformed flags).
func fatalUsage(err error) {
	fmt.Fprintf(os.Stderr, "radiosim: %v\n", err)
	flag.Usage()
	os.Exit(2)
}

// validateFlags rejects flag combinations that would otherwise be
// silently ignored: every flag the run cannot honor is an error, not a
// no-op. Protocol capabilities come from the harness protocol table;
// an unknown protocol is left to the dispatch in main.
func validateFlags(kind, protocol string, pipelined bool, cf channelFlags, adaptive bool, maxEpochs int) error {
	p, known := harness.LookupProtocol(protocol)
	if pipelined && !(known && p.Rings) {
		return fmt.Errorf("-pipelined only applies to the distributed GST builds of -protocol %s (got %q)",
			strings.Join(harness.ProtocolNames(func(p *harness.Protocol) bool { return p.Rings }), " and "), protocol)
	}
	if cf.band < 1 {
		return fmt.Errorf("-band must be >= 1 (1 = pure unit disk), got %g", cf.band)
	}
	if cf.band > 1 && kind != "geo-uniform" && kind != "geo-cluster" {
		return fmt.Errorf("-band needs a position-aware workload: use -graph geo-uniform or geo-cluster (got %q)", kind)
	}
	if cf.jamAdaptive && cf.jam == 0 {
		return fmt.Errorf("-jamadaptive needs a jammer: set a -jam budget (negative = unlimited)")
	}
	if maxEpochs != 0 && !adaptive {
		return fmt.Errorf("-maxepochs only applies to -adaptive runs")
	}
	if maxEpochs < 0 {
		return fmt.Errorf("-maxepochs must be >= 0 (0 = retry until done), got %d", maxEpochs)
	}
	if adaptive && known && !p.Adaptive {
		return fmt.Errorf("-adaptive is not supported by -protocol %s (use k-cd for adaptive k-message broadcast)", protocol)
	}
	return nil
}

// sparse selects the protocol-table entries radiosim dispatches to
// the facade: the per-node engine stacks.
func sparse(p *harness.Protocol) bool { return !p.Dense }

func main() {
	kind := flag.String("graph", "clusterchain", "workload: path, grid, clusterchain, udg, gnp, star, geo-uniform, geo-cluster")
	n := flag.Int("n", 128, "approximate node count")
	protocol := flag.String("protocol", "cd", "protocol: "+strings.Join(harness.ProtocolNames(sparse), ", "))
	k := flag.Int("k", 8, "message count for k-message protocols")
	seed := flag.Uint64("seed", 1, "run seed")
	pipelined := flag.Bool("pipelined", false,
		"pipeline the distributed GST boundary construction (Section 2.2.4; cd/k-cd ring builds where it shortens them)")
	adaptive := flag.Bool("adaptive", false,
		"re-execute the schedule in retry epochs (re-layering from informed radios) until the broadcast completes")
	maxEpochs := flag.Int("maxepochs", 0, "cap on -adaptive retry epochs (0 = until done)")
	var cf channelFlags
	flag.StringVar(&cf.mode, "channel", "auto", "channel adversity: auto (models enabled by their flags) or ideal")
	flag.Float64Var(&cf.loss, "loss", 0, "per-link, per-round packet erasure probability")
	flag.Int64Var(&cf.jam, "jam", 0, "jammer round budget (negative = unlimited)")
	flag.BoolVar(&cf.jamAdaptive, "jamadaptive", false, "jammer targets busiest slots instead of random rounds")
	flag.Float64Var(&cf.cdNoise, "cdnoise", 0, "probability a true collision symbol is missed")
	flag.Float64Var(&cf.cdSpurious, "cdspurious", 0, "probability silence is observed as a spurious collision symbol")
	flag.Float64Var(&cf.faults, "faults", 0, "per-node late-wakeup probability (crash probability is half of it)")
	flag.Float64Var(&cf.band, "band", 1,
		"quasi-unit-disk band factor for geo-* graphs (>1 adds distance-ramped erasure between r_c and band*r_c)")
	logFormat := flag.String("logformat", "text", "stderr event format: text or json")
	logLevel := flag.String("loglevel", "warn", "stderr event level: debug, info (run lifecycle events), warn, error")
	flag.Parse()

	lg, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "radiosim:", err)
		os.Exit(2)
	}

	if err := validateFlags(*kind, *protocol, *pipelined, cf, *adaptive, *maxEpochs); err != nil {
		fatalUsage(err)
	}

	g, layout, err := buildGraph(*kind, *n, *seed, cf.band)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ch, chNames, err := cf.build(g.N(), *seed, layout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d := graph.Eccentricity(g, 0)
	fmt.Printf("workload %s: n=%d m=%d ecc(source)=%d maxdeg=%d\n",
		g.Name(), g.N(), g.M(), d, g.MaxDegree())
	if len(chNames) > 0 {
		fmt.Printf("channel: %s\n", strings.Join(chNames, " + "))
	}
	lg.Info(obs.EventJobStart,
		"protocol", *protocol,
		"workload", g.Name(),
		"n", g.N(),
		"seed", *seed,
		"channel", strings.Join(chNames, "+"),
		"adaptive", *adaptive)
	start := time.Now()

	opts := radiocast.Options{Seed: *seed, Channel: ch, PipelinedBoundaries: *pipelined,
		Adaptive: *adaptive, MaxEpochs: *maxEpochs}
	var res radiocast.Result
	switch *protocol {
	case "decay":
		res, err = radiocast.DecayBroadcast(g, opts)
	case "cr":
		res, err = radiocast.CRBroadcast(g, opts)
	case "gst":
		res, err = radiocast.BroadcastKnownTopology(g, opts)
	case "cd":
		res, err = radiocast.BroadcastCD(g, opts)
	case "k-known":
		res, err = radiocast.BroadcastK(g, *k, opts)
	case "k-cd":
		res, err = radiocast.BroadcastKCD(g, *k, opts)
	default:
		err = fmt.Errorf("unknown protocol %q", *protocol)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	lg.Info(obs.EventJobDone,
		"protocol", *protocol,
		"rounds", res.Rounds,
		"completed", res.Completed,
		"epochs", res.Epochs,
		"dropped", res.Dropped,
		"jammed", res.Jammed,
		"wall_us", time.Since(start).Microseconds())
	status := "completed"
	if !res.Completed {
		status = "INCOMPLETE (round limit)"
	}
	if res.Epochs > 0 {
		fmt.Printf("%s: %s in %d rounds over %d adaptive epoch(s)\n", *protocol, status, res.Rounds, res.Epochs)
	} else {
		fmt.Printf("%s: %s in %d rounds\n", *protocol, status, res.Rounds)
	}
	if res.Dropped > 0 || res.Jammed > 0 {
		fmt.Printf("adversity: %d deliveries dropped, %d observations jammed\n", res.Dropped, res.Jammed)
	}
	if !res.Completed {
		os.Exit(3)
	}
}
