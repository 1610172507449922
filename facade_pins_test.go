package radiocast

// Fixed-seed result pins for the facade: every broadcast on small fixed
// graphs under plain, re-sourced, lossy, adaptive, scaled+pipelined and
// round-limited options, plus digests of both GST builders. The pinned
// counters are simulation outputs, so a refactor of how the facade
// builds and runs its stacks must leave every one of them unchanged.

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// facadeBroadcasts names every facade broadcast (the k-message ones at
// a fixed small k).
var facadeBroadcasts = map[string]func(*Graph, Options) (Result, error){
	"cd":    BroadcastCD,
	"known": BroadcastKnownTopology,
	"k":     func(g *Graph, o Options) (Result, error) { return BroadcastK(g, 3, o) },
	"k-cd":  func(g *Graph, o Options) (Result, error) { return BroadcastKCD(g, 2, o) },
	"decay": DecayBroadcast,
	"cr":    CRBroadcast,
}

func TestFacadePins(t *testing.T) {
	cluster := NewClusterChain(4, 4)
	grid := NewGrid(5, 5)
	// Option sets; channels carry per-run state, so each run gets a
	// fresh one.
	opts := map[string]func() Options{
		"plain":   func() Options { return Options{Seed: 1} },
		"source":  func() Options { return Options{Seed: 2, Source: 9} },
		"erasure": func() Options { return Options{Seed: 3, Channel: ErasureChannel(0.2, 4)} },
		"adaptive": func() Options {
			return Options{Seed: 4, Adaptive: true, Channel: ErasureChannel(0.3, 5)}
		},
		"adaptive-max2": func() Options {
			return Options{Seed: 5, Adaptive: true, MaxEpochs: 2, Channel: ErasureChannel(0.5, 6)}
		},
		"scale2-pipelined": func() Options { return Options{Seed: 6, Scale: 2, PipelinedBoundaries: true} },
		"limit":            func() Options { return Options{Seed: 7, RoundLimit: 12} },
	}
	pins := []struct {
		proto, opts string
		grid        bool
		want        Result
	}{
		{"cd", "plain", false, Result{15868, true, 0, 0, 0}},
		{"cd", "plain", true, Result{40818, true, 0, 0, 0}},
		{"known", "plain", false, Result{28, true, 0, 0, 0}},
		{"known", "plain", true, Result{63, true, 0, 0, 0}},
		{"k", "plain", false, Result{172, true, 0, 0, 0}},
		{"k", "plain", true, Result{166, true, 0, 0, 0}},
		{"k-cd", "plain", false, Result{16100, true, 0, 0, 0}},
		{"k-cd", "plain", true, Result{41108, true, 0, 0, 0}},
		{"decay", "plain", false, Result{21, true, 0, 0, 0}},
		{"decay", "plain", true, Result{32, true, 0, 0, 0}},
		{"cr", "plain", false, Result{23, true, 0, 0, 0}},
		{"cr", "plain", true, Result{18, true, 0, 0, 0}},
		{"cd", "source", false, Result{15606, true, 0, 0, 0}},
		{"cd", "source", true, Result{40788, true, 0, 0, 0}},
		{"known", "source", false, Result{30, true, 0, 0, 0}},
		{"known", "source", true, Result{42, true, 0, 0, 0}},
		{"k", "source", false, Result{174, true, 0, 0, 0}},
		{"k", "source", true, Result{187, true, 0, 0, 0}},
		{"k-cd", "source", false, Result{15734, true, 0, 0, 0}},
		{"k-cd", "source", true, Result{41049, true, 0, 0, 0}},
		{"decay", "source", false, Result{10, true, 0, 0, 0}},
		{"decay", "source", true, Result{22, true, 0, 0, 0}},
		{"cr", "source", false, Result{9, true, 0, 0, 0}},
		{"cr", "source", true, Result{13, true, 0, 0, 0}},
		{"cd", "erasure", false, Result{16128, false, 181, 0, 0}},
		{"cd", "erasure", true, Result{40788, true, 540, 0, 0}},
		{"known", "erasure", false, Result{76, true, 40, 0, 0}},
		{"known", "erasure", true, Result{46, true, 47, 0, 0}},
		{"k", "erasure", false, Result{664, true, 393, 0, 0}},
		{"k", "erasure", true, Result{273, true, 226, 0, 0}},
		{"k-cd", "erasure", false, Result{17172, false, 236, 0, 0}},
		{"k-cd", "erasure", true, Result{42545, false, 689, 0, 0}},
		{"decay", "erasure", false, Result{38, true, 38, 0, 0}},
		{"decay", "erasure", true, Result{17, true, 20, 0, 0}},
		{"cr", "erasure", false, Result{36, true, 15, 0, 0}},
		{"cr", "erasure", true, Result{39, true, 45, 0, 0}},
		{"cd", "adaptive", false, Result{31500, true, 451, 0, 2}},
		{"cd", "adaptive", true, Result{40794, true, 782, 0, 1}},
		{"known", "adaptive", false, Result{70, true, 30, 0, 1}},
		{"known", "adaptive", true, Result{68, true, 62, 0, 1}},
		{"k-cd", "adaptive", false, Result{16174, true, 347, 0, 1}},
		{"k-cd", "adaptive", true, Result{41320, true, 781, 0, 1}},
		{"decay", "adaptive", false, Result{31, true, 37, 0, 1}},
		{"decay", "adaptive", true, Result{47, true, 81, 0, 1}},
		{"cr", "adaptive", false, Result{23, true, 33, 0, 1}},
		{"cr", "adaptive", true, Result{27, true, 40, 0, 1}},
		{"cd", "adaptive-max2", false, Result{32020, true, 708, 0, 2}},
		{"cd", "adaptive-max2", true, Result{81949, true, 1801, 0, 2}},
		{"known", "adaptive-max2", false, Result{106, true, 97, 0, 1}},
		{"known", "adaptive-max2", true, Result{76, true, 153, 0, 1}},
		{"k-cd", "adaptive-max2", false, Result{34344, false, 674, 0, 2}},
		{"k-cd", "adaptive-max2", true, Result{85090, false, 1789, 0, 2}},
		{"decay", "adaptive-max2", false, Result{45, true, 109, 0, 1}},
		{"decay", "adaptive-max2", true, Result{33, true, 90, 0, 1}},
		{"cr", "adaptive-max2", false, Result{69, true, 195, 0, 1}},
		{"cr", "adaptive-max2", true, Result{39, true, 110, 0, 1}},
		{"cd", "scale2-pipelined", false, Result{60832, true, 0, 0, 0}},
		{"cd", "scale2-pipelined", true, Result{159103, true, 0, 0, 0}},
		{"known", "scale2-pipelined", false, Result{28, true, 0, 0, 0}},
		{"known", "scale2-pipelined", true, Result{32, true, 0, 0, 0}},
		{"k", "scale2-pipelined", false, Result{100, true, 0, 0, 0}},
		{"k", "scale2-pipelined", true, Result{105, true, 0, 0, 0}},
		{"k-cd", "scale2-pipelined", false, Result{61224, true, 0, 0, 0}},
		{"k-cd", "scale2-pipelined", true, Result{159672, true, 0, 0, 0}},
		{"decay", "scale2-pipelined", false, Result{29, true, 0, 0, 0}},
		{"decay", "scale2-pipelined", true, Result{26, true, 0, 0, 0}},
		{"cr", "scale2-pipelined", false, Result{33, true, 0, 0, 0}},
		{"cr", "scale2-pipelined", true, Result{30, true, 0, 0, 0}},
		{"known", "limit", false, Result{12, false, 0, 0, 0}},
		{"known", "limit", true, Result{12, false, 0, 0, 0}},
		{"k", "limit", false, Result{12, false, 0, 0, 0}},
		{"k", "limit", true, Result{12, false, 0, 0, 0}},
		{"decay", "limit", false, Result{12, false, 0, 0, 0}},
		{"decay", "limit", true, Result{12, false, 0, 0, 0}},
		{"cr", "limit", false, Result{12, false, 0, 0, 0}},
		{"cr", "limit", true, Result{12, false, 0, 0, 0}},
	}
	for _, p := range pins {
		g := cluster
		if p.grid {
			g = grid
		}
		got, err := facadeBroadcasts[p.proto](g, opts[p.opts]())
		if err != nil {
			t.Errorf("%s/%s: %v", p.proto, p.opts, err)
			continue
		}
		if got != p.want {
			t.Errorf("%s/%s: got %#v, pinned %#v", p.proto, p.opts, got, p.want)
		}
	}
	const noAdaptive = "radiocast: Options.Adaptive is not supported by BroadcastK (use BroadcastKCD for adaptive k-message broadcast)"
	if _, err := BroadcastK(cluster, 3, Options{Adaptive: true}); err == nil || err.Error() != noAdaptive {
		t.Errorf("BroadcastK with Adaptive: got error %v, pinned %q", err, noAdaptive)
	}
}

// gstDigest fingerprints a GST's per-node outputs.
func gstDigest(t *GST) string {
	h := sha256.New()
	fmt.Fprintln(h, t.Tree.Level, t.Tree.Parent, t.Tree.Rank, t.VirtualDistance)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func TestFacadeGSTPins(t *testing.T) {
	central, err := BuildGST(NewGrid(5, 7), 3)
	if err != nil {
		t.Fatal(err)
	}
	if d := gstDigest(central); d != "20db50485ad4bfd2" {
		t.Errorf("BuildGST digest %s", d)
	}
	dist, err := BuildGSTDistributed(NewGNP(20, 0.25, 7), Options{Seed: 6, Scale: 2, Source: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := gstDigest(dist); d != "2716d2e671014054" || dist.ConstructionRounds != 236758 {
		t.Errorf("BuildGSTDistributed digest %s rounds %d", d, dist.ConstructionRounds)
	}
}
