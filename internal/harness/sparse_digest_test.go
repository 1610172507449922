package harness

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"testing"

	"radiocast/internal/adapt"
	"radiocast/internal/channel"
	"radiocast/internal/graph"
	"radiocast/internal/radio"
)

// Sparse-stack history pins. Every per-node (radio.Network) context —
// the table's decay, cr, gst (quiet and noising), k-known and, through
// their adaptive runs, cd and k-cd, plus E23's collision wave — runs
// over the segment-B probe graphs: on every stock channel a fresh
// context runs one seed and then, reused, a second; every adaptive
// entry also runs a multi-epoch adaptive broadcast with carryover. Each
// run hashes the full radio.Stats, the rounds and completion, the
// coverage, the stride-97 observer, and per node its done state and
// RNG position (the next draw). A refactor of the sparse stacks must
// leave every digest unchanged.

// sparseProbe is what the digests read of a sparse context: its run
// shape, the adaptive carryover harvest, and its engine.
type sparseProbe interface {
	Stack
	mark(dst []bool)
	engine() *radio.Network
}

func (s *sparseStack) engine() *radio.Network { return s.nw }

// writeSparseNodes hashes each node's done state and, where its
// protocol draws randomness, its RNG position.
func writeSparseNodes(h hash.Hash, st sparseProbe, n int) {
	done := make([]bool, n)
	st.mark(done)
	for v := range done {
		fmt.Fprintf(h, "node %d done=%t", v, done[v])
		if p, ok := st.engine().Protocol(graph.NodeID(v)).(interface{ Rng() *rand.Rand }); ok {
			fmt.Fprintf(h, " rng=%d", p.Rng().Uint64())
		}
		fmt.Fprintln(h)
	}
}

// sparseEntries are the table entries the probe runs, with their build
// options.
var sparseEntries = []struct {
	name string
	opts StackOpts
}{
	{"decay", StackOpts{}},
	{"cr", StackOpts{}},
	{"gst", StackOpts{}},
	{"gst", StackOpts{Noise: true}},
	{"k-known", StackOpts{K: 3}},
	{"cd", StackOpts{}},
	{"k-cd", StackOpts{K: 3}},
}

// probeWave builds E23's wave stack over g from node 0, open for
// horizon rounds per run, through its adaptive constructor.
func probeWave(g *graph.Graph, horizon int64) *AdaptiveRunner {
	return NewAdaptiveWave(g, nil, 0, 0, horizon)
}

// sparseRuns hashes a fresh run and a reused run of a context built by
// build, per channel (every stock channel on the first two graphs, the
// ideal one elsewhere).
func sparseRuns(h hash.Hash, gi int, g *graph.Graph, build func() sparseProbe) {
	chans := probeChannels
	if gi > 1 {
		chans = chans[:1]
	}
	for _, pc := range chans {
		st := build()
		for _, seed := range probeSeeds {
			o := &probeObserver{}
			st.SetObserver(o, 97)
			rounds, ok, stats := st.RunFrom(nil, pc.make(g.N(), seed), seed, 0)
			fmt.Fprintf(h, "%s seed=%d ", pc.name, seed)
			writeRun(h, rounds, ok, stats, st.Coverage(), o)
			writeSparseNodes(h, st, g.N())
		}
	}
}

// probeAdaptive hashes one multi-epoch adaptive broadcast of ar over a
// 30% erasure channel: every epoch's rounds, coverage and per-node
// state, then the outcome and the observer.
func probeAdaptive(h hash.Hash, ar *AdaptiveRunner, g *graph.Graph, seed uint64) {
	o := &probeObserver{}
	ar.SetObserver(o, 97)
	ar.SetChannelFactory(EpochChannel(channel.NewErasure(0.3, seed)))
	st := Stack(ar.stack).(sparseProbe)
	out := adapt.Run(ar, adapt.Policy{MaxEpochs: 6, OnEpoch: func(epoch int, rounds int64, covered int, done bool) {
		fmt.Fprintf(h, "epoch %d rounds=%d cov=%d done=%t\n", epoch, rounds, covered, done)
		writeSparseNodes(h, st, g.N())
	}})
	fmt.Fprintf(h, "outcome %+v obs=%d last=%+v\n", out, o.calls, o.last)
}

// sparseStackCases computes every sparse probe digest, keyed by case.
func sparseStackCases() map[string]string {
	got := map[string]string{}
	for gi, g := range probeGraphs() {
		d := graph.Eccentricity(g, 0)
		for _, e := range sparseEntries {
			p := mustProtocol(e.name)
			key := fmt.Sprintf("%s/noise=%t/%s", e.name, e.opts.Noise, g.Name())
			if !p.Rings {
				h := sha256.New()
				sparseRuns(h, gi, g, func() sparseProbe { return p.Build(g, 0, e.opts).(sparseProbe) })
				got["runs/"+key] = digestOf(h)
			}
			if p.Adaptive {
				// Open-ended entries get half their estimate per epoch,
				// so carryover epochs run even where the first would
				// finish; a ring pipeline's compiled schedule caps its
				// own epochs.
				o := e.opts
				if !p.Rings {
					o.EpochLimit = p.Rounds(g.N(), d, o) / 2
				}
				h := sha256.New()
				for _, seed := range probeSeeds {
					probeAdaptive(h, p.NewAdaptive(g, 0, o, nil, seed), g, seed)
				}
				got["adaptive/"+key] = digestOf(h)
			}
		}
		h := sha256.New()
		sparseRuns(h, gi, g, func() sparseProbe { return Stack(probeWave(g, int64(d)).stack).(sparseProbe) })
		got["runs/wave/"+g.Name()] = digestOf(h)
		h = sha256.New()
		for _, seed := range probeSeeds {
			probeAdaptive(h, NewAdaptiveWave(g, nil, seed, 0, int64(d)/2+1), g, seed)
		}
		got["adaptive/wave/"+g.Name()] = digestOf(h)
	}
	return got
}

// sparseStackDigests pins sparseStackCases.
var sparseStackDigests = map[string]string{
	"adaptive/cd/noise=false/caterpillar-6x2":     "b33a70ec98524edd3d7c02ac03c464a24efa1416611106577c2b31404a7d00de",
	"adaptive/cd/noise=false/clusterchain-4x3":    "7f5039ca156fe9b3a7751fdde420a090bed7a2202d5759643ed0eece16d240ab",
	"adaptive/cd/noise=false/gnp-20-p0.200":       "d6cf18b04e2f43f72ce3d6a56de5adcc3248502450b596bb2a654e30954c6f23",
	"adaptive/cd/noise=false/grid-3x5":            "fb7b7705389e133dc284de2277bbe1e5bf47d16e80d3850feb8850c3dab1b182",
	"adaptive/cd/noise=false/path-9":              "a7ef0b1a54e58057873854cc4be7564b24c4091b1fd146fefc3c16d72c44c2ed",
	"adaptive/cr/noise=false/caterpillar-6x2":     "159ea5ee98614ef215c59dc7fd4fa781b30c2edd578fbabaab6ba723d3b17a55",
	"adaptive/cr/noise=false/clusterchain-4x3":    "eef086343e789b278013305c73890ea7b89402a3364d219c9ded86f62e5c431a",
	"adaptive/cr/noise=false/gnp-20-p0.200":       "e394802be08f337bbd497f5cd7fad841f632aeab40173bd84d46f5fe025356f7",
	"adaptive/cr/noise=false/grid-3x5":            "c83ff034e710fda78ece4d18a6792eee7f27b13ca8fe0ce6860939755a269877",
	"adaptive/cr/noise=false/path-9":              "08573cbc8bf1b38c69c6ef34150b94fe6639fc9d6e70a588daaf5d023aa1f3df",
	"adaptive/decay/noise=false/caterpillar-6x2":  "0c57b25370d6bcc79ad4a31f31dec082e181e6eb7a3360d4be56c2a2f93403ef",
	"adaptive/decay/noise=false/clusterchain-4x3": "9e96597edf8dcce922ccf7b801b51de06b2ddbe433c0a9a1494b6ad2b28f9ddd",
	"adaptive/decay/noise=false/gnp-20-p0.200":    "12b45fbed420747951ce2222a42b4dfa588888f5e5d4bc47d78481fa35220d9e",
	"adaptive/decay/noise=false/grid-3x5":         "67f36741abbd87e6350aedb069757f36e57dce79c4e8304aefbcd0e5a9a424bb",
	"adaptive/decay/noise=false/path-9":           "f15fca43302c193b887557a3feb3deaacbcc08d908df54035ec953157ae204ad",
	"adaptive/gst/noise=false/caterpillar-6x2":    "78ae92d5c3e1522e8ec40fd9f49e5ddecdab107ac54e069c86486416189bcac4",
	"adaptive/gst/noise=false/clusterchain-4x3":   "e227cf648cd50f6b6db4670660c4eeb113bdd3fdfccbe416a60c19fa017da06d",
	"adaptive/gst/noise=false/gnp-20-p0.200":      "770b3a74697d01ba6b1090bdd2daa924f01fcd7c0a82f89da44539b947539798",
	"adaptive/gst/noise=false/grid-3x5":           "c637d410d5e2dac11edb68933541b3c41278ce57e870f583dc32d58e69e7fd7f",
	"adaptive/gst/noise=false/path-9":             "a080c2df578e5147b4ceff38fce0c5d58402fa2f4f93ef05c058b2e83c92e2a3",
	"adaptive/gst/noise=true/caterpillar-6x2":     "c6b3787bee86db4a6d7743270d0000d12c9917c8bd5b66e67236123256ca0390",
	"adaptive/gst/noise=true/clusterchain-4x3":    "20aa4db9494f1aeb68d69762c0505a15655d8c3e7f21c6b5b2d092548c782a3e",
	"adaptive/gst/noise=true/gnp-20-p0.200":       "92638d42b71c520dc61452996a2a77e0b578677ddc49add161d43df04fd43b1b",
	"adaptive/gst/noise=true/grid-3x5":            "fa9bf4cea6bfa19438c42fde103ea98338e4967eb1163b300f79b70484ed0429",
	"adaptive/gst/noise=true/path-9":              "e972bad99faaa39ce31cfafdc0025ccc0b0e2be674d0ab06b0bb67ea6fe006ba",
	"adaptive/k-cd/noise=false/caterpillar-6x2":   "d1d7c3d614f04d45acd8c93f14061a8270149542d5a3f83eb67ca7a1ce92db9a",
	"adaptive/k-cd/noise=false/clusterchain-4x3":  "7b0724a6e20b6c85b4b0a920d9972aa29f6ee72bd3b34d091e96f70c76cebcb4",
	"adaptive/k-cd/noise=false/gnp-20-p0.200":     "658f4b56c638d7a14e4707e953e218782f48b63c65982c05f3ee901193b1aec5",
	"adaptive/k-cd/noise=false/grid-3x5":          "77dd75b0d6f32e73b21b5c6ccf5f1f08916863777c0742b7a7145749c41ed442",
	"adaptive/k-cd/noise=false/path-9":            "30d72d6a90daefb41c56473e536d2dbddd6e6b200696bfc44a5bd1475a5317d7",
	"adaptive/wave/caterpillar-6x2":               "73b5f039415ee603c7630be90d8927b8c0c3c8936968be6a57dab1d5648e46a3",
	"adaptive/wave/clusterchain-4x3":              "0ef1466f1d95de1537e183fd3f3b327bb5cd39532409916c9511c4418bbc0b79",
	"adaptive/wave/gnp-20-p0.200":                 "d9a24d930245daae5b3b29743d0b256d32470b2c39b14993275f531d54afa323",
	"adaptive/wave/grid-3x5":                      "4113669c1ec0c03a6d7e2dc2505c8f939b874df49500d594eccd4f17eab79cc9",
	"adaptive/wave/path-9":                        "733312e9d589e26ee691686d2645bf811f5f902975c3135ecb1d063ea02eef96",
	"runs/cr/noise=false/caterpillar-6x2":         "b3740616f262edafeb0d8deaa74f14fc2d37d8b84383579a2134826a228f3193",
	"runs/cr/noise=false/clusterchain-4x3":        "fd123d590b61a17cf93c0581f72891ebe0593105273929ee6da2411ff0a4605c",
	"runs/cr/noise=false/gnp-20-p0.200":           "44c4f6e0a17be211b806ba99dc07d7e40149ff4e87c1fe7dbdb8556051ac9e29",
	"runs/cr/noise=false/grid-3x5":                "8bdf1c22ed1b8487f9e44eba807c04a48d8104390595bef2353ae79a74e6f4f5",
	"runs/cr/noise=false/path-9":                  "1bd8e3a2f0aa43fd5da0839276048ab984539187547ed23888205cd3b655864e",
	"runs/decay/noise=false/caterpillar-6x2":      "106adbcdc445a50983925eaeca113bdb32f6c59cdacda5104fe6babfe158992a",
	"runs/decay/noise=false/clusterchain-4x3":     "07e0f40336151c6d9171c96ddaf5b42be17ebe87bd959393df7c34da17350417",
	"runs/decay/noise=false/gnp-20-p0.200":        "af9eaa9c263ee92337dd6e61af37148ec5293c196d7046201e2854e1ea319d54",
	"runs/decay/noise=false/grid-3x5":             "41c8a31fc434a0a4aa308bf228d85695193fd0556b734dfcb80e9b3c2c6bf6ae",
	"runs/decay/noise=false/path-9":               "c93d985f796c58a1c3171e702a89ea415e241c88474801f4f580ba42c675626a",
	"runs/gst/noise=false/caterpillar-6x2":        "583c3e28ac3c064eae2ade4730f910c4471eb9c749df7d4af2386fb7a3343fe9",
	"runs/gst/noise=false/clusterchain-4x3":       "b63920013574ddeb6d9afe3b2a40a7d8ef17906de221c110cfc4f29fadc0b91d",
	"runs/gst/noise=false/gnp-20-p0.200":          "a493344e59f66918cafb5396e396ea042503e930a12a479e844b7457a2f67516",
	"runs/gst/noise=false/grid-3x5":               "8a86f3a7a82a3a5380a6627328b1819c3a06ca883afa0f6969c85887d511770d",
	"runs/gst/noise=false/path-9":                 "54dd065df690dd551a8d04b0bf6dbc9532ccca5fc7bb0bdc232516ecae82c42d",
	"runs/gst/noise=true/caterpillar-6x2":         "e516368490cf9936d9291d7a71e8ea07315ea5d835e071f757457551bc129dc2",
	"runs/gst/noise=true/clusterchain-4x3":        "49c01da612ec5e3cb1a085c40a2f5f46979dd712a326fa2bce40139571784618",
	"runs/gst/noise=true/gnp-20-p0.200":           "dd5d4b165acdacc54ef9b52267bc8da1f7a8f0aec804ba73f8a5cf037d28e866",
	"runs/gst/noise=true/grid-3x5":                "ec04deb7b976b44bdce99bf19bc6ca047f16d3badc30231c13b52b696baf6a09",
	"runs/gst/noise=true/path-9":                  "05123365cee373b6f8b34f582bf0543b52e344dc9b8ba23a029edc3ad386195c",
	"runs/k-known/noise=false/caterpillar-6x2":    "8771a4aca0ef2cdec1aefaecbebf88043da71bb8e3d214324ee17331865e29cd",
	"runs/k-known/noise=false/clusterchain-4x3":   "e5e03c8bd4c43331e2da61616e7edea6f03d5b9dde12e9405799052f905fb92b",
	"runs/k-known/noise=false/gnp-20-p0.200":      "ee3feef2c3071176143903caac1a67ad9fd292a66c851b75380f54fdf3b393ea",
	"runs/k-known/noise=false/grid-3x5":           "30be1be9b34c4e9da59c74c4c07b14c75ec3263358272ed16d6f4b30e09556b4",
	"runs/k-known/noise=false/path-9":             "964323498c6ef801675070402497dbe4d2848cf830e4958af6152cd51c82ccf1",
	"runs/wave/caterpillar-6x2":                   "ebcd5397fa19ceb093795399956e614d286edbaea4dba4ae03b0c93a2a803fb2",
	"runs/wave/clusterchain-4x3":                  "6d659ce6d6ee4b1528fb68cdac72748b6d7dd931ed90de4750fe6c2772c4a236",
	"runs/wave/gnp-20-p0.200":                     "9c51634c9a5b67fc2334f217a261b749ab5e1441b84a30866af280e4974dcfee",
	"runs/wave/grid-3x5":                          "e069beeb8ff863215734f18854622ecd13c6098cbe47c64fcd5a9c27399270d1",
	"runs/wave/path-9":                            "a306f75cdc64769f36c493c8f9f141aa18618e00ceb07c7ef073eed68fe9829f",
}

func TestSparseStackDigests(t *testing.T) {
	got := sparseStackCases()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := sparseStackDigests[k]; !ok || want != got[k] {
			t.Errorf("%q: %q,", k, got[k])
		}
	}
	if len(got) != len(sparseStackDigests) {
		t.Errorf("%d cases, %d pins", len(got), len(sparseStackDigests))
	}
}
