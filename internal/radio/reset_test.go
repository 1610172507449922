package radio

import (
	"testing"

	"radiocast/internal/graph"
)

// countingProto transmits every k-th round and records receptions.
type countingProto struct {
	id       NodeID
	every    int64
	received int
	sleepy   bool
}

func (p *countingProto) Act(r int64) Action {
	if p.sleepy && r%7 == 3 {
		return Sleep(r + 100) // exercise the far queue
	}
	if r%p.every == int64(p.id)%p.every {
		return Transmit(RawPacket{Value: r})
	}
	return Listen
}

func (p *countingProto) Observe(int64, Outcome) { p.received++ }

// TestNetworkResetReplaysIdentically pins the engine half of the
// reuse contract: Reset + reinstall must reproduce a fresh network's
// run exactly — same stats, same receptions — without reallocating.
func TestNetworkResetReplaysIdentically(t *testing.T) {
	g := graph.Grid(4, 4)
	run := func(nw *Network, protos []*countingProto) (Stats, int) {
		for v, p := range protos {
			p.received = 0
			nw.SetProtocol(NodeID(v), p)
		}
		nw.Run(300)
		total := 0
		for _, p := range protos {
			total += p.received
		}
		return nw.Stats(), total
	}
	protos := make([]*countingProto, g.N())
	for v := range protos {
		protos[v] = &countingProto{id: NodeID(v), every: 3 + int64(v%4), sleepy: v%2 == 0}
	}
	nw := New(g, Config{CollisionDetection: true})
	st1, rec1 := run(nw, protos)
	nw.Reset()
	st2, rec2 := run(nw, protos)
	if st1 != st2 || rec1 != rec2 {
		t.Fatalf("reset run diverged:\nfresh %+v rec=%d\nreset %+v rec=%d", st1, rec1, st2, rec2)
	}
	if st1.Rounds != 300 || rec1 == 0 {
		t.Fatalf("implausible run: %+v rec=%d", st1, rec1)
	}
}

// TestNetworkResetAllowsReinstall verifies Reset clears the
// double-install guard and the channel.
func TestNetworkResetAllowsReinstall(t *testing.T) {
	g := graph.Path(2)
	nw := New(g, Config{})
	p := &countingProto{id: 0, every: 2}
	nw.SetProtocol(0, p)
	nw.Reset()
	nw.SetProtocol(0, p) // must not panic
}

// TestDoneSet covers the counter contract, including nil ticking.
func TestDoneSet(t *testing.T) {
	var nilSet *DoneSet
	nilSet.Tick() // must not panic
	var ds DoneSet
	ds.Reset(2)
	if ds.Done() {
		t.Fatal("empty set done")
	}
	ds.Tick()
	ds.Tick()
	if !ds.Done() || ds.Count() != 2 {
		t.Fatalf("unexpected state: %+v", ds)
	}
	ds.Reset(1)
	if ds.Done() || ds.Count() != 0 {
		t.Fatal("reset did not rewind")
	}
	ds.Tick()
	if !ds.Done() {
		t.Fatal("tick after reset not counted")
	}
}
