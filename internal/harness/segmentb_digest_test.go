package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"radiocast/internal/channel"
	"radiocast/internal/graph"
	"radiocast/internal/gstdist"
	"radiocast/internal/obs"
	"radiocast/internal/radio"
	"radiocast/internal/rings"
	"radiocast/internal/rng"
)

// Segment-B history pins. Every stack that runs the distributed GST
// construction's boundary schedule (segment B) — the cd and k-cd ring
// pipelines, standalone gstdist builds and the E6 runner — is run over
// small graphs, with boundary pipelining off and on, and every
// observable of each run is hashed: the full radio.Stats, the rounds
// and completion, the coverage, a stride-97 round observer's call
// count and last snapshot, and per node its RNG position (the next
// draw) and, where the harness can read it, the construction's Result.
// A refactor of segment B must leave every digest unchanged.

// probeObserver counts round snapshots and keeps the last one.
type probeObserver struct {
	calls int64
	last  obs.RoundSnapshot
}

func (o *probeObserver) OnRound(s obs.RoundSnapshot) { o.calls++; o.last = s }

// probeChannel is one stock channel of the probe, built per run.
type probeChannel struct {
	name string
	make func(n int, seed uint64) radio.Channel
}

var probeChannels = []probeChannel{
	{"ideal", func(int, uint64) radio.Channel { return nil }},
	{"erasure", func(_ int, s uint64) radio.Channel { return channel.NewErasure(0.2, s) }},
	{"noisycd", func(_ int, s uint64) radio.Channel { return channel.NewNoisyCD(0.1, 0.02, s) }},
	{"jammer", func(_ int, s uint64) radio.Channel { return channel.NewJammer(60, 0.3, s) }},
	{"adaptive-jammer", func(_ int, s uint64) radio.Channel { return channel.NewAdaptiveJammer(40, 2, s) }},
	{"faults", func(n int, s uint64) radio.Channel {
		return channel.RandomFaults(n, 0, 0.2, 300, 0.1, 20000, s)
	}},
}

// probeGraphs are the small graphs of the probe (n <= 36).
func probeGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(9),
		graph.Grid(3, 5),
		graph.ClusterChain(4, 3),
		graph.GNP(20, 0.2, 3),
		graph.Caterpillar(6, 2),
	}
}

var probeSeeds = []uint64{1, 2}

func digestOf(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// writeRun hashes one run's engine-level observables.
func writeRun(h hash.Hash, rounds int64, ok bool, st radio.Stats, cov int, o *probeObserver) {
	fmt.Fprintf(h, "run rounds=%d ok=%t cov=%d stats=%+v obs=%d last=%+v\n", rounds, ok, cov, st, o.calls, o.last)
}

// writeGSTNodes hashes each construction node's Result, informed flag
// and RNG position.
func writeGSTNodes(h hash.Hash, protos []*gstdist.Protocol) {
	for v, p := range protos {
		fmt.Fprintf(h, "node %d %+v informed=%t rng=%d\n", v, p.Result(), p.Informed(), p.Rng().Uint64())
	}
}

// writeRingNodes hashes each ring-pipeline node's layer, completion
// and RNG position.
func writeRingNodes(h hash.Hash, st Stack) {
	switch r := st.(type) {
	case *Theorem11Run:
		for v, p := range r.protos {
			fmt.Fprintf(h, "node %d layer=%d has=%t rng=%d\n", v, p.Layer(), p.Has(), p.Rng().Uint64())
		}
	case *Theorem13Run:
		for v, p := range r.protos {
			fmt.Fprintf(h, "node %d layer=%d decoded=%t rng=%d\n", v, p.Layer(), p.Store().CanDecodeAll(), p.Rng().Uint64())
		}
	}
}

// segmentBCases computes every probe digest, keyed by case.
func segmentBCases() map[string]string {
	got := map[string]string{}
	gs := probeGraphs()
	// The ring pipelines: every graph on the ideal channel, every stock
	// channel on two graphs. Rings this narrow keep the sequential
	// schedule when pipelining is asked for (rings.Config.SetPipelined),
	// so pipe=true runs on the first two graphs only.
	for _, entry := range []string{"cd", "k-cd"} {
		for _, pipe := range []bool{false, true} {
			for gi, g := range gs {
				if pipe && gi > 1 {
					continue
				}
				h := sha256.New()
				chans := probeChannels
				if gi > 1 {
					chans = chans[:1]
				}
				st := mustProtocol(entry).Build(g, 0, StackOpts{K: 3, Scale: 1, Pipelined: pipe})
				for _, pc := range chans {
					for _, seed := range probeSeeds {
						o := &probeObserver{}
						st.SetObserver(o, 97)
						rounds, ok, stats := st.RunFrom(nil, pc.make(g.N(), seed), seed, 0)
						fmt.Fprintf(h, "%s seed=%d ", pc.name, seed)
						writeRun(h, rounds, ok, stats, st.Coverage(), o)
						writeRingNodes(h, st)
					}
				}
				got[fmt.Sprintf("%s/pipe=%t/%s", entry, pipe, g.Name())] = digestOf(h)
			}
		}
	}
	// Ring pipelines five layers wide, where the pipelined schedule is
	// shorter and so runs, with ring-anchored boundary tags.
	for _, g := range gs[:2] {
		for _, k := range []int{0, 3} {
			for _, pipe := range []bool{false, true} {
				cfg := rings.DefaultConfig(g.N(), graph.Eccentricity(g, 0), k, 1)
				cfg.W, cfg.GST.DBound = 5, 4
				cfg.SetPipelined(pipe)
				var st Stack
				if k > 0 {
					st = NewTheorem13RunCfg(g, cfg, 0)
				} else {
					st = NewTheorem11RunCfg(g, cfg, 0)
				}
				h := sha256.New()
				for _, seed := range probeSeeds {
					o := &probeObserver{}
					st.SetObserver(o, 97)
					rounds, ok, stats := st.RunFrom(nil, nil, seed, 0)
					fmt.Fprintf(h, "pipelined=%t seed=%d ", cfg.Pipelined(), seed)
					writeRun(h, rounds, ok, stats, st.Coverage(), o)
					writeRingNodes(h, st)
				}
				got[fmt.Sprintf("rings-w5/k=%d/pipe=%t/%s", k, pipe, g.Name())] = digestOf(h)
			}
		}
	}
	// Standalone constructions: both layerings, with and without
	// virtual distances, at c = 1 and 2, on two graphs; every stock
	// channel on the collision-wave build without virtual distances.
	for _, g := range gs[:2] {
		d := graph.Eccentricity(g, 0)
		for _, mode := range []gstdist.LayerMode{gstdist.LayerCD, gstdist.LayerDecay} {
			for _, vd := range []bool{false, true} {
				for _, c := range []int{1, 2} {
					for _, pipe := range []bool{false, true} {
						cfg := gstdist.DefaultConfig(g.N(), d, c, mode, vd)
						cfg.PipelinedBoundaries = pipe
						h := sha256.New()
						chans := probeChannels[:1]
						if mode == gstdist.LayerCD && c == 1 && !vd {
							chans = probeChannels
						}
						for _, pc := range chans {
							for _, seed := range probeSeeds {
								var ds radio.DoneSet
								o := &probeObserver{}
								nw := radio.New(g, radio.Config{CollisionDetection: mode == gstdist.LayerCD,
									Channel: pc.make(g.N(), seed), Observer: o, ObserverStride: 97})
								protos := make([]*gstdist.Protocol, g.N())
								for v := range protos {
									protos[v] = gstdist.New(cfg, graph.NodeID(v), v == 0, 0, rng.New(seed, 0x31, uint64(v)))
									protos[v].DoneSet = &ds
									nw.SetProtocol(graph.NodeID(v), protos[v])
								}
								initDone(&ds, g.N(), func(v int) bool { return protos[v].Informed() })
								rounds, ok := nw.RunUntil(cfg.TotalRounds(), ds.Done)
								nw.Run(cfg.TotalRounds())
								fmt.Fprintf(h, "%s seed=%d ", pc.name, seed)
								writeRun(h, rounds, ok, nw.Stats(), ds.Count(), o)
								writeGSTNodes(h, protos)
							}
						}
						got[fmt.Sprintf("gstdist/mode=%d/vdist=%t/c=%d/pipe=%t/%s", mode, vd, c, pipe, g.Name())] = digestOf(h)
					}
				}
			}
		}
	}
	// The E6 runner (preset levels, reused across seeds).
	for _, g := range gs[1:3] {
		for _, pipe := range []bool{false, true} {
			r := NewGSTPipelinedRun(g, g.N(), graph.Eccentricity(g, 0), 1, pipe)
			h := sha256.New()
			for _, seed := range probeSeeds {
				fmt.Fprintf(h, "seed=%d %+v stats=%+v\n", seed, r.Run(seed), r.nw.Stats())
				writeGSTNodes(h, r.protos)
			}
			got[fmt.Sprintf("e6/pipe=%t/%s", pipe, g.Name())] = digestOf(h)
		}
	}
	return got
}

// segmentBDigests pins segmentBCases.
var segmentBDigests = map[string]string{
	"cd/pipe=false/caterpillar-6x2":                      "a5709a6ccc67042fa59f7fd0adab48e838724f32b441b3b540ff2a2a50a9f88a",
	"cd/pipe=false/clusterchain-4x3":                     "6dd69691f67b83ffbb80f9e848c5045922e82b7b98b6dccf4941b8a2625bb65f",
	"cd/pipe=false/gnp-20-p0.200":                        "d52206111bc21d60c3ad0a87ee8bdac56f538ba58d4b52f3579181fe9189737e",
	"cd/pipe=false/grid-3x5":                             "8233f2f56de26d5ad65e18355294fb86955264eebb353a966cfd75fa78c4de65",
	"cd/pipe=false/path-9":                               "1a9a3d65dc010a4f2f754f79eb6dd5dd7b316396a056232689f2474a34847675",
	"cd/pipe=true/grid-3x5":                              "8233f2f56de26d5ad65e18355294fb86955264eebb353a966cfd75fa78c4de65",
	"cd/pipe=true/path-9":                                "1a9a3d65dc010a4f2f754f79eb6dd5dd7b316396a056232689f2474a34847675",
	"e6/pipe=false/clusterchain-4x3":                     "8b87bb14c41666f979f4d96ffc143605cfedf57608c972e78cd22b1fae857056",
	"e6/pipe=false/grid-3x5":                             "75e93e1daaf9857275ce45c500aaae547c64c0078a12850e329e2e32f345ba87",
	"e6/pipe=true/clusterchain-4x3":                      "0530e39da91de94073ee439451167a341e1c8f716cc244a49c52bfd13cdf1475",
	"e6/pipe=true/grid-3x5":                              "340933f6f32055a56341adaef4522a9563114e49ffd7a86b7ee3019eebf0aa4c",
	"gstdist/mode=1/vdist=false/c=1/pipe=false/grid-3x5": "36261152c753cd1157c4a1c0163b5bfb4cabba43cbc207a12a78e7279cd1978b",
	"gstdist/mode=1/vdist=false/c=1/pipe=false/path-9":   "79aeb06b08658960b0d93c9985d67e873aa745cb17753b2c903f0616c75c16aa",
	"gstdist/mode=1/vdist=false/c=1/pipe=true/grid-3x5":  "840b899a9c688dc94038b67941583cb74ff7a4f7950d84f65e3e79a642b027d5",
	"gstdist/mode=1/vdist=false/c=1/pipe=true/path-9":    "593c6ee4d1a7aae05937553389c6cbcc6f724283adfa02a76920a15f6a97c6ef",
	"gstdist/mode=1/vdist=false/c=2/pipe=false/grid-3x5": "071bbf738233fc0d008f6f2f601cb6f22893f27f1e22381d7faf63c3097350b2",
	"gstdist/mode=1/vdist=false/c=2/pipe=false/path-9":   "4539c4ec1d10f1f6c58fd707954e1c4c79ac96a296776a7f876313cf1d767ffc",
	"gstdist/mode=1/vdist=false/c=2/pipe=true/grid-3x5":  "f46d6a01dd9320b2be7dfdaea5218e85c0402b1a4309d7af0f13c75e8674e588",
	"gstdist/mode=1/vdist=false/c=2/pipe=true/path-9":    "e15fb4d7fd38a288e59a5445457a9492127c30071061b73ba79c9960fc599086",
	"gstdist/mode=1/vdist=true/c=1/pipe=false/grid-3x5":  "bede971c3ba594d2285415a0f585ab8d028ec1c1b9fb9be88b37ca6848ef3dee",
	"gstdist/mode=1/vdist=true/c=1/pipe=false/path-9":    "f7079c441a7ce325a48d1b4c89f9e9aa087b46c336ed2bafd955989f6ea6dd18",
	"gstdist/mode=1/vdist=true/c=1/pipe=true/grid-3x5":   "e2dbf59555d94fd70af4ec21e3a7f302c419ef27f7b19c3761926359423f4c6d",
	"gstdist/mode=1/vdist=true/c=1/pipe=true/path-9":     "7633a6d58a5fda7cd44863967e874fae5024420f6987ce69435785d3ebbeba32",
	"gstdist/mode=1/vdist=true/c=2/pipe=false/grid-3x5":  "d033b657ca486f8b3a8499d06243af8d617283f639099f09dd8e0c75e4392741",
	"gstdist/mode=1/vdist=true/c=2/pipe=false/path-9":    "9dc907e946e3873a5d52d11c50051bb174ee39612b3d4fefe6ea264aaff2ed8c",
	"gstdist/mode=1/vdist=true/c=2/pipe=true/grid-3x5":   "4a8495582c0cdc19ce8841498286c47743c9a2bd4caebe0c389ced0568442cb4",
	"gstdist/mode=1/vdist=true/c=2/pipe=true/path-9":     "bf265442a751c277046fb8ce8310ff52141c5192dd49779796ab62938aaeeae8",
	"gstdist/mode=2/vdist=false/c=1/pipe=false/grid-3x5": "f2355a49de7b60d7b2c6f3422e485d2b79261fcb4a4e59dff21a1342b6eb8d71",
	"gstdist/mode=2/vdist=false/c=1/pipe=false/path-9":   "fefa3c2e31350d405200cd58de1a529dab865cf54bd68d4630493921c54f6799",
	"gstdist/mode=2/vdist=false/c=1/pipe=true/grid-3x5":  "59eeed3798daf938856a80f58906b7ab96c93dea54e943896bbc6e808bb6d661",
	"gstdist/mode=2/vdist=false/c=1/pipe=true/path-9":    "15b55e3a4191c68eaec2f46091f3de9a7ec889a3f25f6cf34820210dc2c7f8e3",
	"gstdist/mode=2/vdist=false/c=2/pipe=false/grid-3x5": "f8300438c8a8bc4830ff45adafa7acc75f3b2ffaf9257dbf9f12733d74d858c0",
	"gstdist/mode=2/vdist=false/c=2/pipe=false/path-9":   "660d426a0819146388977206033e042e6cc88d23766d9309f5a53a9a9fdd206c",
	"gstdist/mode=2/vdist=false/c=2/pipe=true/grid-3x5":  "8e58eb3aa78d1fa731011a8c8ad0278fb990076fc3056b14990edea2da420ba2",
	"gstdist/mode=2/vdist=false/c=2/pipe=true/path-9":    "c276343e10644be6c111f399832dc0e5e86a68ceff77108f26f6bf0596b4569f",
	"gstdist/mode=2/vdist=true/c=1/pipe=false/grid-3x5":  "785f625fd62d38a31264cd0b22425bc4e2a5c14fde12ab971204a00abd2f17a7",
	"gstdist/mode=2/vdist=true/c=1/pipe=false/path-9":    "31f0d7ab7cad28be101c2b1f3c20c44d1f0f412491066d644ca9764f1e8c8581",
	"gstdist/mode=2/vdist=true/c=1/pipe=true/grid-3x5":   "502c002c7dc2cdca15bce45f9dd281c0043e7f0d2e9999af20882d616dc2aa63",
	"gstdist/mode=2/vdist=true/c=1/pipe=true/path-9":     "87a6f9d567a99ee0b4177e187b5595d8a7a021d692225d5c799fc6257a69a322",
	"gstdist/mode=2/vdist=true/c=2/pipe=false/grid-3x5":  "4303a8411080e829b36a66f501a99a21ccc10638555391ded6f91744f4be8083",
	"gstdist/mode=2/vdist=true/c=2/pipe=false/path-9":    "1c58a420543b0c02c3708835b389515a853375543f08756fe9790954b8a2267e",
	"gstdist/mode=2/vdist=true/c=2/pipe=true/grid-3x5":   "048639a36d3550c074e781d78dd4c84698d3f78f3bae6ad4e603ce89cf5b5300",
	"gstdist/mode=2/vdist=true/c=2/pipe=true/path-9":     "48fffd3d1635e7df52b64198fcdb05b6fd329ac4976678431e30a27ea5e52d93",
	"k-cd/pipe=false/caterpillar-6x2":                    "fb5257703ac4ef0d050f87d5fdc097e26e834cf51d428d0b94ee8ea3ddd164c8",
	"k-cd/pipe=false/clusterchain-4x3":                   "9084322ff9ae7084b3cb7748c5132a275b8e35b1b8fa16b6e66a7e898a9ebec6",
	"k-cd/pipe=false/gnp-20-p0.200":                      "2c51ec098b9c2104e77f7d5d7164c3733a6c06abf0498c8cda5f484f2b6ef25a",
	"k-cd/pipe=false/grid-3x5":                           "523f52a418d1fa0d1659804306f32a09fb23359e41e8835f8849927168769e99",
	"k-cd/pipe=false/path-9":                             "4aa1bd3974f23a8338f3b875fcf373be6ca26d57f3f3a467c4ff0f9dcc8f5428",
	"k-cd/pipe=true/grid-3x5":                            "523f52a418d1fa0d1659804306f32a09fb23359e41e8835f8849927168769e99",
	"k-cd/pipe=true/path-9":                              "4aa1bd3974f23a8338f3b875fcf373be6ca26d57f3f3a467c4ff0f9dcc8f5428",
	"rings-w5/k=0/pipe=false/grid-3x5":                   "03ec96d33ea24ae46606aab8d1a6e6041bb4fb7222771c77b2a3dd4ea0295b66",
	"rings-w5/k=0/pipe=false/path-9":                     "a6759d6e8bcc4da8b469b32f28f374ddd3703f7e709490f6fa5063e59e14ee5a",
	"rings-w5/k=0/pipe=true/grid-3x5":                    "835a1544c412e4b70c6c0115e993a5a5ade720524baa16ef6ed60a3c0a8de60d",
	"rings-w5/k=0/pipe=true/path-9":                      "7e85775eeaead254a06948cbbe3c11334bdfbdc13e8ffe6f35774d0012f78e0f",
	"rings-w5/k=3/pipe=false/grid-3x5":                   "973720877979fe0306bbe81860a87df82cbb3148e1be5460213de1fc2924159f",
	"rings-w5/k=3/pipe=false/path-9":                     "39cd1c81040379608efd55c32b7c270195c48ca51c85b7a3f54711537bf722b8",
	"rings-w5/k=3/pipe=true/grid-3x5":                    "363524b0c44462a6f57ab17ecb6e1ca6ecfaff713b6dfa77abe0e597afdc68ce",
	"rings-w5/k=3/pipe=true/path-9":                      "a79f851983f0bfefbdc7787c93d2f861a462ec80124924c8b576a17cb7442750",
}

func TestSegmentBDigests(t *testing.T) {
	got := segmentBCases()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := segmentBDigests[k]; !ok || want != got[k] {
			t.Errorf("%q: %q,", k, got[k])
		}
	}
	if len(got) != len(segmentBDigests) {
		t.Errorf("%d cases, %d pins", len(got), len(segmentBDigests))
	}
}
