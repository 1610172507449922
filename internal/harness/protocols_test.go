package harness

import (
	"testing"

	"radiocast/internal/graph"
	"radiocast/internal/radio"
)

// TestProtocolTableCapabilities checks that every entry's declared
// capabilities match what its built context can do: Dense contexts
// take a worker count, RetopoSafe contexts can swap topology, and
// Adaptive entries build an adaptive runner whose epoch 0 equals the
// plain context's run with the same seed. Every entry has a positive
// round estimate, and a ring pipeline's run fits in it (the estimate
// is the compiled schedule the run is capped at).
func TestProtocolTableCapabilities(t *testing.T) {
	g := graph.ClusterChain(3, 4)
	d := graph.Eccentricity(g, 0)
	seen := map[string]bool{}
	for i := range Protocols {
		p := &Protocols[i]
		if seen[p.Name] {
			t.Fatalf("duplicate table entry %q", p.Name)
		}
		seen[p.Name] = true
		if q, ok := LookupProtocol(p.Name); !ok || q != p {
			t.Fatalf("LookupProtocol(%q) does not return its entry", p.Name)
		}
		s := p.Build(g, 0, StackOpts{K: 2})
		_, workers := s.(interface{ SetWorkers(int) })
		if workers != p.Dense {
			t.Errorf("%s: Dense=%v but SetWorkers present=%v", p.Name, p.Dense, workers)
		}
		_, retopo := s.(interface {
			Retopo(offsets []int32, edges []radio.NodeID)
		})
		if p.RetopoSafe && !retopo {
			t.Errorf("%s: RetopoSafe but the context has no Retopo", p.Name)
		}
		rounds, ok, st := s.RunFrom(nil, nil, 3, 0)
		if !ok || s.Coverage() != g.N() {
			t.Errorf("%s: ideal run incomplete (rounds %d, coverage %d/%d)", p.Name, rounds, s.Coverage(), g.N())
		}
		if est := p.Rounds(g.N(), d, StackOpts{K: 2}); est <= 0 || p.Rings && rounds > est {
			t.Errorf("%s: estimate %d rounds, ideal run took %d", p.Name, est, rounds)
		}
		if !p.Adaptive {
			continue
		}
		a := p.NewAdaptive(g, 0, StackOpts{K: 2}, nil, 3)
		ar, aok, ast := a.RunEpoch(0, 0)
		if ar != rounds || aok != ok || ast != st {
			t.Errorf("%s: adaptive epoch 0 (%d,%v,%+v) differs from the plain run (%d,%v,%+v)",
				p.Name, ar, aok, ast, rounds, ok, st)
		}
	}
	if _, ok := LookupProtocol("gossip"); ok {
		t.Fatal("LookupProtocol accepted an unknown name")
	}
}

// TestAdaptiveRetopoGuard pins the mobility guard: the retry layer's
// Retopo admits only the RetopoSafe entries. CR runs on the same
// context type as Decay (which can swap topology), so the guard must
// come from the table capability, not from the context's method set.
func TestAdaptiveRetopoGuard(t *testing.T) {
	g := graph.ClusterChain(3, 4)
	off, edges := graph.ClusterChain(3, 4).CSR()
	retopo := func(name string) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		mustProtocol(name).NewAdaptive(g, 0, StackOpts{}, nil, 1).Retopo(off, edges)
		return false
	}
	for _, name := range []string{"cr", "gst", "cd"} {
		if !retopo(name) {
			t.Errorf("%s: Retopo succeeded; its schedule is compiled from the construction graph", name)
		}
	}
	if retopo("decay") {
		t.Error("decay: Retopo panicked; plain Decay depends on nothing but n")
	}
}

// TestCarryoverGuard pins the epoch guard: a context whose entry is not
// Adaptive has no carryover epochs, so a run handed an informed set
// panics instead of silently running a fresh broadcast.
func TestCarryoverGuard(t *testing.T) {
	g := graph.ClusterChain(3, 4)
	for i := range Protocols {
		p := &Protocols[i]
		if p.Adaptive {
			continue
		}
		s := p.Build(g, 0, StackOpts{K: 2})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a carryover run did not panic", p.Name)
				}
			}()
			s.RunFrom(make([]bool, g.N()), nil, 1, 0)
		}()
	}
}
