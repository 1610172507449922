package radiocast

import (
	"slices"
	"testing"

	"radiocast/internal/graph"
)

func TestFacadeBroadcastKnownTopology(t *testing.T) {
	g := NewGrid(6, 6)
	res, err := BroadcastKnownTopology(g, Options{Seed: 1})
	if err != nil || !res.Completed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestFacadeBroadcastCD(t *testing.T) {
	g := NewClusterChain(4, 4)
	res, err := BroadcastCD(g, Options{Seed: 2})
	if err != nil || !res.Completed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestFacadeBroadcastK(t *testing.T) {
	g := NewGrid(5, 5)
	res, err := BroadcastK(g, 6, Options{Seed: 3})
	if err != nil || !res.Completed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if _, err := BroadcastK(g, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestFacadeBroadcastKCD(t *testing.T) {
	g := NewGNP(30, 0.2, 5)
	res, err := BroadcastKCD(g, 4, Options{Seed: 4})
	if err != nil || !res.Completed {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestFacadeBaselines(t *testing.T) {
	g := NewPath(40)
	d, err := DecayBroadcast(g, Options{Seed: 5})
	if err != nil || !d.Completed {
		t.Fatalf("decay: %+v %v", d, err)
	}
	c, err := CRBroadcast(g, Options{Seed: 5})
	if err != nil || !c.Completed {
		t.Fatalf("cr: %+v %v", c, err)
	}
}

func TestFacadeBuildGST(t *testing.T) {
	g := NewGrid(5, 7)
	tree, err := BuildGST(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.VirtualDistance) != g.N() {
		t.Fatal("vdist missing")
	}
	if info := tree.ScheduleInfo(); info.N() != g.N() || !slices.Equal(info.Vdist, tree.VirtualDistance) {
		t.Fatal("schedule info missing or disagrees with VirtualDistance")
	}
}

func TestFacadeBuildGSTDistributed(t *testing.T) {
	g := NewGNP(20, 0.25, 7)
	tree, err := BuildGSTDistributed(g, Options{Seed: 6, Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree.ConstructionRounds <= 0 {
		t.Fatal("construction rounds not reported")
	}
	if info := tree.ScheduleInfo(); info.N() != g.N() || !slices.Equal(info.Vdist, tree.VirtualDistance) ||
		!slices.Equal(info.Parent, tree.Tree.Parent) || !slices.Equal(info.Rank, tree.Tree.Rank) {
		t.Fatal("schedule info missing or disagrees with the harvested tree")
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := BroadcastCD(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := NewPath(5)
	if _, err := BroadcastCD(g, Options{Source: 99}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

// Options.Adaptive on the ideal channel completes in one epoch with
// the exact round count of the non-adaptive run; under heavy loss it
// re-layers past the one-shot completion cliff. BroadcastK rejects the
// flag explicitly rather than ignoring it.
func TestFacadeAdaptive(t *testing.T) {
	g := NewClusterChain(6, 6)

	plain, err := BroadcastCD(g, Options{Seed: 9})
	if err != nil || !plain.Completed {
		t.Fatalf("plain run: %+v %v", plain, err)
	}
	ideal, err := BroadcastCD(g, Options{Seed: 9, Adaptive: true})
	if err != nil || !ideal.Completed || ideal.Epochs != 1 || ideal.Rounds != plain.Rounds {
		t.Fatalf("ideal-channel adaptive run should be one epoch at the plain round count:\nplain    %+v\nadaptive %+v (%v)",
			plain, ideal, err)
	}

	lossy := Options{Seed: 9, Channel: ErasureChannel(0.3, 77)}
	oneShot, err := BroadcastCD(g, lossy)
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.Completed {
		t.Skip("this seed survived loss 0.3 one-shot; the retry assertion needs a failing base run")
	}
	lossy.Adaptive = true
	lossy.Channel = ErasureChannel(0.3, 77)
	retried, err := BroadcastCD(g, lossy)
	if err != nil || !retried.Completed || retried.Epochs < 2 {
		t.Fatalf("adaptive run did not close the loss cliff: %+v (%v)", retried, err)
	}

	for _, fn := range []func() (Result, error){
		func() (Result, error) {
			return BroadcastKCD(g, 4, Options{Seed: 9, Adaptive: true, Channel: ErasureChannel(0.2, 8)})
		},
		func() (Result, error) {
			return DecayBroadcast(g, Options{Seed: 9, Adaptive: true, Channel: ErasureChannel(0.2, 8)})
		},
		func() (Result, error) {
			return CRBroadcast(g, Options{Seed: 9, Adaptive: true, Channel: ErasureChannel(0.2, 8)})
		},
		func() (Result, error) {
			return BroadcastKnownTopology(g, Options{Seed: 9, Adaptive: true, Channel: ErasureChannel(0.2, 8)})
		},
	} {
		res, err := fn()
		if err != nil || !res.Completed || res.Epochs < 1 {
			t.Fatalf("adaptive run failed: %+v (%v)", res, err)
		}
	}

	if _, err := BroadcastK(g, 4, Options{Adaptive: true}); err == nil {
		t.Fatal("BroadcastK silently accepted Options.Adaptive")
	}
}

// Adaptive runs obey the reproducibility contract end to end.
func TestFacadeAdaptiveDeterminism(t *testing.T) {
	g := NewClusterChain(6, 6)
	run := func() Result {
		res, err := BroadcastCD(g, Options{Seed: 3, Adaptive: true, Channel: ErasureChannel(0.3, 41)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("adaptive facade run nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestRandomMessagesReproducible(t *testing.T) {
	a := RandomMessages(4, 16, 9)
	b := RandomMessages(4, 16, 9)
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("messages not reproducible")
		}
	}
}

// BuildGST reports bad input as an error instead of panicking inside
// the construction, and still accepts a graph its roots do not span.
func TestFacadeBuildGSTRejectsBadInput(t *testing.T) {
	grid := NewGrid(3, 3)
	for _, c := range []struct {
		name  string
		g     *Graph
		roots []NodeID
	}{
		{"nil graph", nil, nil},
		{"empty graph", NewPath(0), nil},
		{"root past n", grid, []NodeID{42}},
		{"root n", grid, []NodeID{9}},
		{"negative root", grid, []NodeID{-1}},
		{"one bad root of two", grid, []NodeID{0, 42}},
	} {
		if _, err := BuildGST(c.g, c.roots...); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Two disjoint paths: the forest covers the rooted one only.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	tree, err := BuildGST(b.Build())
	if err != nil {
		t.Fatalf("disconnected graph rejected: %v", err)
	}
	if tree.Tree.InTree(4) || !tree.Tree.InTree(2) {
		t.Fatal("forest membership wrong on a disconnected graph")
	}
}

// Options.RoundLimit caps every broadcast, the ring pipelines of
// BroadcastCD and BroadcastKCD included: no run may outlast it.
func TestFacadeRoundLimit(t *testing.T) {
	g := NewClusterChain(6, 6)
	for name, run := range facadeBroadcasts {
		res, err := run(g, Options{Seed: 1, RoundLimit: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rounds > 5 || res.Completed {
			t.Errorf("%s: RoundLimit 5 gave %+v", name, res)
		}
	}
}
