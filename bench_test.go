package radiocast

// Benchmarks regenerating every experiment of EXPERIMENTS.md. Each
// benchmark reports simulated rounds as its primary metric
// (rounds/op); wall time measures the simulator, not the protocol.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// The full sweeps (larger sizes, more seeds) are produced by
// cmd/radiobench.

import (
	"testing"

	"radiocast/internal/adapt"
	"radiocast/internal/beep"
	"radiocast/internal/channel"
	"radiocast/internal/cr"
	"radiocast/internal/decay"
	"radiocast/internal/exp"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
	"radiocast/internal/harness"
	"radiocast/internal/mmv"
	"radiocast/internal/radio"
	"radiocast/internal/rings"
	"radiocast/internal/rng"
)

// benchExperiment runs experiment id's quick single-seed table b.N
// times.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for _, e := range harness.All() {
		if e.ID != id {
			continue
		}
		for i := 0; i < b.N; i++ {
			if tb := e.Run(1, true); len(tb.Rows) == 0 {
				b.Fatal("no rows")
			}
		}
		return
	}
	b.Fatalf("no experiment %s", id)
}

// reportRounds runs fn b.N times and reports the mean simulated
// rounds per run.
// buildStack builds the named protocol table entry over g from node 0.
func buildStack(name string, g *graph.Graph) harness.Stack {
	p, _ := harness.LookupProtocol(name)
	return p.Build(g, 0, harness.StackOpts{})
}

func reportRounds(b *testing.B, fn func(seed uint64) (int64, bool)) {
	b.Helper()
	var total int64
	for i := 0; i < b.N; i++ {
		rounds, ok := fn(uint64(i))
		if !ok {
			b.Fatalf("run %d incomplete", i)
		}
		total += rounds
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds/op")
}

// E1/E2: single-message broadcast on the headline cluster-chain
// workload, one benchmark per protocol.

func BenchmarkE1_Decay_ClusterChain32x8(b *testing.B) {
	g := graph.ClusterChain(32, 8)
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := buildStack("decay", g).RunFrom(nil, nil, seed, 1<<22)
		return rounds, ok
	})
}

func BenchmarkE1_CR_ClusterChain32x8(b *testing.B) {
	g := graph.ClusterChain(32, 8)
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := buildStack("cr", g).RunFrom(nil, nil, seed, 1<<22)
		return rounds, ok
	})
}

func BenchmarkE1_GSTBroadcast_ClusterChain32x8(b *testing.B) {
	g := graph.ClusterChain(32, 8)
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := harness.NewGSTSingleRun(g, false, 0).RunFrom(nil, nil, seed, 1<<22)
		return rounds, ok
	})
}

func BenchmarkE1_Theorem11Full_ClusterChain8x8(b *testing.B) {
	g := graph.ClusterChain(8, 8)
	d := graph.Eccentricity(g, 0)
	cfg := rings.DefaultConfig(g.N(), d, 0, 1)
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := harness.NewTheorem11RunCfg(g, cfg, 0).RunFrom(nil, nil, seed, 0)
		return rounds, ok
	})
}

func BenchmarkE2_DiameterScaling_GST(b *testing.B) {
	for _, chain := range []int{8, 32} {
		g := graph.ClusterChain(chain, 8)
		b.Run(g.Name(), func(b *testing.B) {
			reportRounds(b, func(seed uint64) (int64, bool) {
				rounds, ok, _ := harness.NewGSTSingleRun(g, false, 0).RunFrom(nil, nil, seed, 1<<22)
				return rounds, ok
			})
		})
	}
}

// E3: distributed GST construction (fixed schedule; rounds are
// deterministic, wall time measures the simulator).
func BenchmarkE3_GSTConstruction_Grid4x8(b *testing.B) { benchExperiment(b, "E3") }

// E4: recruiting protocol.
func BenchmarkE4_Recruiting(b *testing.B) { benchExperiment(b, "E4") }

// E5: assignment shrinkage.
func BenchmarkE5_AssignmentShrinkage(b *testing.B) { benchExperiment(b, "E5") }

// E6: sequential vs pipelined boundary construction (schedule ratio is
// fixed; wall time measures the simulator on both modes).
func BenchmarkE6_PipelinedBoundaries(b *testing.B) { benchExperiment(b, "E6") }

// E7: Theorem 1.2 k-sweep.
func BenchmarkE7_MultiMessageKnown_Grid8x8(b *testing.B) {
	g := graph.Grid(8, 8)
	for _, k := range []int{4, 16} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			reportRounds(b, func(seed uint64) (int64, bool) {
				rounds, ok, _ := harness.NewGSTMultiRun(g, k, 0).RunFrom(nil, nil, seed, 1<<22)
				return rounds, ok
			})
		})
	}
}

// E8: Theorem 1.3 full pipeline.
func BenchmarkE8_MultiMessageUnknown_Grid4x12(b *testing.B) {
	g := graph.Grid(4, 12)
	d := graph.Eccentricity(g, 0)
	cfg := rings.DefaultConfig(g.N(), d, 8, 1)
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := harness.NewTheorem13RunCfg(g, cfg, 0).RunFrom(nil, nil, seed, 0)
		return rounds, ok
	})
}

// E9: Decay under jamming (Lemma 3.2).
func BenchmarkE9_DecayMMV_Path64(b *testing.B) { benchExperiment(b, "E9") }

// E10: MMV GST schedule under jamming (Lemma 3.3).
func BenchmarkE10_MMVGST_Grid8x8(b *testing.B) {
	g := graph.Grid(8, 8)
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := harness.NewGSTSingleRun(g, true, 0).RunFrom(nil, nil, seed, 1<<22)
		return rounds, ok
	})
}

// E11: Decay progress probability (Lemma 2.2).
func BenchmarkE11_DecayProgress(b *testing.B) { benchExperiment(b, "E11") }

// E12: RLNC infection/decoding (Def 3.8 / Prop 3.9).
func BenchmarkE12_RLNC(b *testing.B) { benchExperiment(b, "E12") }

// E13: loss-rate robustness sweep (adversarial channel subsystem).
func BenchmarkE13_LossSweep(b *testing.B) { benchExperiment(b, "E13") }

// E14: jammer-budget robustness sweep.
func BenchmarkE14_JammerSweep(b *testing.B) { benchExperiment(b, "E14") }

// E15: unreliable-CD robustness sweep.
func BenchmarkE15_NoisyCDSweep(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkEngine_LossyChannel_Decay measures the sparse engine under
// per-link erasure, a link-only channel: it runs the same first-touch
// delivery path as the nil channel, with DropLink applied in the
// delivery pass and no per-listener Observe sweep, and allocates nothing per round.
func BenchmarkEngine_LossyChannel_Decay(b *testing.B) {
	g := graph.ClusterChain(16, 8)
	b.ResetTimer()
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := buildStack("decay", g).RunFrom(nil, ErasureChannel(0.1, seed), seed, 1<<22)
		return rounds, ok
	})
}

// A1: slow-slot keying ablation.
func BenchmarkA1_VirtualDistanceAblation(b *testing.B) { benchExperiment(b, "A1") }

// A2: coding vs routing ablation.
func BenchmarkA2_CodingVsRouting_Grid6x6(b *testing.B) {
	g := graph.Grid(6, 6)
	b.Run("rlnc-k8", func(b *testing.B) {
		reportRounds(b, func(seed uint64) (int64, bool) {
			rounds, ok, _ := harness.NewGSTMultiRun(g, 8, 0).RunFrom(nil, nil, seed, 1<<22)
			return rounds, ok
		})
	})
	b.Run("routing-k8", func(b *testing.B) {
		reportRounds(b, func(seed uint64) (int64, bool) {
			return harness.RunGSTMultiRouting(g, 8, seed, 1<<22)
		})
	})
}

// A3: ring width ablation.
func BenchmarkA3_RingWidth(b *testing.B) { benchExperiment(b, "A3") }

// Engine fast-path benchmarks: these isolate the simulator hot loop
// (wake queue + CSR delivery pass) from protocol logic. Run with
// -benchmem: the steady-state round loop must not allocate — the ring
// wake buckets, reused pop buffer, and stamped hear/listen scratch
// replaced the historical map+heap queue (which allocated a bucket
// slice and a boxed heap key per round). Every row that builds its
// graph outside the loop resets the timer after that build, so
// allocs/op counts the measured op alone, not set-up spread over b.N.

// BenchmarkEngine_DenseRounds drives every node of a dense graph every
// round (the worst case for the wake queue: n pushes and one bucket
// drain per round).
func BenchmarkEngine_DenseRounds_Grid32x32(b *testing.B) {
	g := graph.Grid(32, 32)
	b.ResetTimer()
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := buildStack("decay", g).RunFrom(nil, nil, seed, 1<<22)
		return rounds, ok
	})
}

// BenchmarkEngine_SleepHeavy exercises the far-wake path: the MMV GST
// schedule sleeps nodes across slot periods, so wake-ups hop both the
// ring window and the far heap.
func BenchmarkEngine_SleepHeavy_Path256(b *testing.B) {
	g := graph.Path(256)
	b.ResetTimer()
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := harness.NewGSTSingleRun(g, false, 0).RunFrom(nil, nil, seed, 1<<22)
		return rounds, ok
	})
}

// BenchmarkEngine_Theorem13 is the allocation stress test: the full
// Theorem 1.3 stack runs ~100k rounds with per-ring RLNC state. The
// history of this benchmark tracks the engine's perf work: ~791k
// allocs/op before the PR-1 fast path, ~33k after it, ~5.6k after the
// scratch-packet/solver work (the Fresh variant below), and ~3.3k
// with Reset reuse (bench/baseline.json pins 3331 at -benchtime 3x;
// the number is seed-dependent) — the run-reuse path every
// repeated-seed harness takes. Round counts are identical in all
// variants: a context run is bit-identical to a fresh run with the
// same seed.
func BenchmarkEngine_Theorem13_Grid4x12(b *testing.B) {
	g := graph.Grid(4, 12)
	d := graph.Eccentricity(g, 0)
	b.ResetTimer()
	run := harness.NewTheorem13RunCfg(g, rings.DefaultConfig(g.N(), d, 8, 1), 0)
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := run.RunFrom(nil, nil, seed, 0)
		return rounds, ok
	})
}

// BenchmarkEngine_Theorem13_Fresh is the same workload without Reset
// reuse (construct-per-run): the difference against the benchmark
// above is the per-seed construction cost the reuse layer eliminates.
// It builds through the typed constructor, not the protocol table, so
// the timed construction is the stack alone (a table Build would add
// the source eccentricity BFS).
func BenchmarkEngine_Theorem13_Fresh_Grid4x12(b *testing.B) {
	g := graph.Grid(4, 12)
	d := graph.Eccentricity(g, 0)
	b.ResetTimer()
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := harness.NewTheorem13RunCfg(g, rings.DefaultConfig(g.N(), d, 8, 1), 0).RunFrom(nil, nil, seed, 0)
		return rounds, ok
	})
}

// BenchmarkEngine_GSTPipelinedBuild runs E6's pipelined distributed
// construction through its reuse context (zero per-seed construction):
// several same-parity boundaries drive concurrently, so this is the
// alloc guard for the pipelined segment-B path — boundary machines and
// recruiting runs are built per window, never per round, and the
// baseline pins that per-run total.
func BenchmarkEngine_GSTPipelinedBuild_Grid4x8(b *testing.B) {
	g := graph.Grid(4, 8)
	d := graph.Eccentricity(g, 0)
	b.ResetTimer()
	run := harness.NewGSTPipelinedRun(g, g.N(), d, 1, true)
	reportRounds(b, func(seed uint64) (int64, bool) {
		res := run.Run(seed)
		return res.Rounds, true
	})
}

// BenchmarkEngine_GSTSequentialBuild is the same workload on the
// sequential boundary schedule: the rounds/op gap against the
// benchmark above is E6's headline measurement.
func BenchmarkEngine_GSTSequentialBuild_Grid4x8(b *testing.B) {
	g := graph.Grid(4, 8)
	d := graph.Eccentricity(g, 0)
	b.ResetTimer()
	run := harness.NewGSTPipelinedRun(g, g.N(), d, 1, false)
	reportRounds(b, func(seed uint64) (int64, bool) {
		res := run.Run(seed)
		return res.Rounds, true
	})
}

// BenchmarkEngine_DecayReuse measures the lightest reuse path: one
// DecayRun context across seeds — per-seed work is the round loop
// plus reseeding, nothing else.
func BenchmarkEngine_DecayReuse_ClusterChain16x8(b *testing.B) {
	g := graph.ClusterChain(16, 8)
	b.ResetTimer()
	run := buildStack("decay", g)
	reportRounds(b, func(seed uint64) (int64, bool) {
		rounds, ok, _ := run.RunFrom(nil, nil, seed, 1<<22)
		return rounds, ok
	})
}

// BenchmarkEngine_AdaptiveDecayReuse measures the adaptive retry
// layer's overhead on the ideal channel: every run completes in its
// first epoch, so the allocs/op delta against
// BenchmarkEngine_DecayReuse is the pure cost of the wrapper —
// carryover harvest and epoch accounting, nothing per round. The
// baseline pins that the retry layer keeps steady-state epochs on the
// reuse path's zero-rebuild budget.
func BenchmarkEngine_AdaptiveDecayReuse_ClusterChain16x8(b *testing.B) {
	g := graph.ClusterChain(16, 8)
	b.ResetTimer()
	decayEntry, _ := harness.LookupProtocol("decay")
	run := decayEntry.NewAdaptive(g, 0, harness.StackOpts{}, nil, 0)
	reportRounds(b, func(seed uint64) (int64, bool) {
		run.Reseed(seed)
		out := adapt.Run(run, adapt.Policy{})
		return out.Rounds, out.Completed
	})
}

// BenchmarkEngine_AdaptiveTheorem11Loss is the multi-epoch guard: a
// Theorem 1.1 broadcast at per-link loss 0.3 needs 2-3 re-layering
// epochs to complete. Each epoch is a Reset-reused run of the
// already-built stack, so allocs/op must scale with the epoch count
// (per-node RNG reseeds, one channel Offset wrapper per extra epoch),
// never with the ~200k simulated rounds.
func BenchmarkEngine_AdaptiveTheorem11Loss_ClusterChain6x6(b *testing.B) {
	g := graph.ClusterChain(6, 6)
	b.ResetTimer()
	cd, _ := harness.LookupProtocol("cd")
	run := cd.NewAdaptive(g, 0, harness.StackOpts{}, nil, 0)
	reportRounds(b, func(seed uint64) (int64, bool) {
		run.Reseed(seed)
		run.SetChannelFactory(harness.EpochChannel(channel.NewErasure(0.3, rng.Mix(seed, 0xe13))))
		out := adapt.Run(run, adapt.Policy{MaxEpochs: 16})
		return out.Rounds, out.Completed
	})
}

// BenchmarkEngine_DenseDecay is the million-node-engine guard: one
// full dense Decay broadcast over a streaming-built GNP-10^5 per op
// (construction + run — the E19 cell shape). allocs/op is dominated by
// the SoA state and engine buffers, all sized once per op: the round
// loop itself is allocation-free (TestDenseSteadyStateAllocsZero), so
// this number scales with n, never with rounds.
func BenchmarkEngine_DenseDecay_GNP100k(b *testing.B) {
	const n = 100_000
	g := graph.BuildConnected(graph.StreamGNP(n, 16.0/n, 0xe19), 0xe19)
	b.ResetTimer()
	reportRounds(b, func(seed uint64) (int64, bool) {
		pr := decay.NewDense(g, seed, 0)
		eng := radio.NewDense(g, radio.Config{}, pr)
		defer eng.Close()
		return eng.RunUntil(1<<20, pr.Done)
	})
}

// BenchmarkEngine_DenseDecayErasure_GNP100k is the E20 cell shape: the
// same broadcast over the same graph under 10% per-link erasure. The
// erasure model is link-only, so the engine stays on its ideal
// collect/deliver path with the loss applied while counting; a regression to the O(n)
// per-round listener sweep shows up here as ns/op, never as
// rounds/op, which the loss draws alone determine.
func BenchmarkEngine_DenseDecayErasure_GNP100k(b *testing.B) {
	const n = 100_000
	g := graph.BuildConnected(graph.StreamGNP(n, 16.0/n, 0xe19), 0xe19)
	b.ResetTimer()
	reportRounds(b, func(seed uint64) (int64, bool) {
		pr := decay.NewDense(g, seed, 0)
		eng := radio.NewDense(g, radio.Config{Channel: channel.NewErasure(0.1, rng.Mix(seed, 0xe20))}, pr)
		defer eng.Close()
		return eng.RunUntil(1<<20, pr.Done)
	})
}

// BenchmarkEngine_DenseDecayParallel_GNP100k is the same workload with
// the deterministic parallel delivery pass (Workers = 4): identical
// rounds/op by the byte-identity contract; the allocs/op delta against
// the sequential benchmark is the worker pool and the per-partition
// transmitter and touched-listener lists, a constant.
func BenchmarkEngine_DenseDecayParallel_GNP100k(b *testing.B) {
	const n = 100_000
	g := graph.BuildConnected(graph.StreamGNP(n, 16.0/n, 0xe19), 0xe19)
	b.ResetTimer()
	reportRounds(b, func(seed uint64) (int64, bool) {
		pr := decay.NewDense(g, seed, 0)
		eng := radio.NewDense(g, radio.Config{Workers: 4}, pr)
		defer eng.Close()
		return eng.RunUntil(1<<20, pr.Done)
	})
}

// BenchmarkEngine_DenseCR_GNP100k is the same E19 cell shape for the
// CR port: one full dense CR broadcast (FastDecay schedule, keyed
// draws) over the shared streaming GNP-10^5 per op. The schedule
// params hang off the source eccentricity, computed once outside the
// loop (the harness pays it per cell; here it would drown the signal).
func BenchmarkEngine_DenseCR_GNP100k(b *testing.B) {
	const n = 100_000
	g := graph.BuildConnected(graph.StreamGNP(n, 16.0/n, 0xe19), 0xe19)
	p := cr.NewParams(n, graph.Eccentricity(g, 0))
	b.ResetTimer()
	reportRounds(b, func(seed uint64) (int64, bool) {
		pr := cr.NewDense(g, p, seed, 0)
		eng := radio.NewDense(g, radio.Config{}, pr)
		defer eng.Close()
		return eng.RunUntil(1<<20, pr.Done)
	})
}

// BenchmarkEngine_DenseWave_GNP100k is the E19 cell shape for the
// collision wave: one full dense layering (CD on, horizon = source
// eccentricity — the wave completes in exactly that many rounds on the
// ideal channel) over the shared streaming GNP-10^5 per op. The wave
// is deterministic, so rounds/op is the eccentricity itself.
func BenchmarkEngine_DenseWave_GNP100k(b *testing.B) {
	const n = 100_000
	g := graph.BuildConnected(graph.StreamGNP(n, 16.0/n, 0xe19), 0xe19)
	ecc := int64(graph.Eccentricity(g, 0))
	b.ResetTimer()
	reportRounds(b, func(seed uint64) (int64, bool) {
		pr := beep.NewDenseWave(g, 0, ecc)
		eng := radio.NewDense(g, radio.Config{CollisionDetection: true}, pr)
		defer eng.Close()
		return eng.RunUntil(ecc, pr.Done)
	})
}

// BenchmarkEngine_DenseGST_GNP100k is the E21 cell shape for the
// structured GST broadcast: one full mmv.Dense run over the shared
// streaming GNP-10^5 per op. Tree construction, flattening, and the
// MMV schedule sit outside the loop (the build-once/broadcast-many
// split the daemon's pooled contexts exploit); allocs/op is the SoA
// protocol state + engine buffers, sized once per op.
func BenchmarkEngine_DenseGST_GNP100k(b *testing.B) {
	const n = 100_000
	g := graph.BuildConnected(graph.StreamGNP(n, 16.0/n, 0xe19), 0xe19)
	f := gst.Flatten(gst.Construct(g, 0))
	s := mmv.NewSchedule(n)
	b.ResetTimer() // tree construction is the pooled, once-per-context cost
	reportRounds(b, func(seed uint64) (int64, bool) {
		pr := mmv.NewDense(g, f, s, seed, 0, false)
		eng := radio.NewDense(g, radio.Config{}, pr)
		defer eng.Close()
		return eng.RunUntil(1<<22, pr.Done)
	})
}

// BenchmarkEngine_StreamCSR_GNP100k isolates the streaming graph
// build (no Builder maps: one run of the generator, the upper parts of
// the rows transposed into the lower parts, per-row dedup, and the
// connectivity sweep) — the construction half of every E19 cell.
func BenchmarkEngine_StreamCSR_GNP100k(b *testing.B) {
	const n = 100_000
	for i := 0; i < b.N; i++ {
		g := graph.BuildConnected(graph.StreamGNP(n, 16.0/n, 0xe19), 0xe19)
		if g.N() != n {
			b.Fatal("bad graph")
		}
	}
}

// benchGSTConstruct times gst.Construct alone on a prebuilt graph —
// the E21 cell's tree build, whose allocs/op the bench-smoke gate pins
// (a flat per-node scratch set, nothing per BFS level).
func benchGSTConstruct(b *testing.B, g *graph.Graph) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := gst.Construct(g, 0); t.MaxLevel() == 0 {
			b.Fatal("degenerate tree")
		}
	}
}

// BenchmarkEngine_GSTConstruct_Grid150 builds the GST of the 150×150
// grid: 299 BFS levels, the deep-and-narrow E21 shape.
func BenchmarkEngine_GSTConstruct_Grid150(b *testing.B) {
	benchGSTConstruct(b, graph.FromStream(graph.StreamGrid(150, 150)))
}

// BenchmarkEngine_GSTConstruct_Cluster150 builds the GST of the
// 150-clique × 150 cluster chain: 300 levels over 3.3M directed edges.
func BenchmarkEngine_GSTConstruct_Cluster150(b *testing.B) {
	benchGSTConstruct(b, graph.FromStream(graph.StreamClusterChain(150, 150)))
}

// BenchmarkRunner compares the experiment orchestrator at different
// worker counts on one plan (E11 quick: 3 degrees × 200-trial cells).
// On a multicore machine the parallel variants shrink wall time; the
// assembled tables are identical by construction.
func BenchmarkRunner(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			runner := &exp.Runner{Parallelism: workers}
			for i := 0; i < b.N; i++ {
				tb, _ := runner.RunTable(harness.E11Plan(1, true))
				if len(tb.Rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
