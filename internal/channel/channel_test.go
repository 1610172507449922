package channel

import (
	"math"
	"testing"

	"radiocast/internal/graph"
	"radiocast/internal/radio"
	"radiocast/internal/rng"
)

// randomNet builds a network of non-adaptive random actors (their
// actions depend only on their own RNG stream, never on observations),
// so the transmission schedule is identical under every channel.
func randomNet(g *graph.Graph, cd bool, ch radio.Channel, seed uint64) *radio.Network {
	nw := radio.New(g, radio.Config{CollisionDetection: cd, Channel: ch})
	for v := 0; v < g.N(); v++ {
		r := rng.New(seed, uint64(v))
		nw.SetProtocol(graph.NodeID(v), &radio.FuncProtocol{ActFunc: func(round int64) radio.Action {
			if r.Intn(4) == 0 {
				return radio.Transmit(radio.RawPacket{Value: round})
			}
			return radio.Listen
		}})
	}
	return nw
}

// A pass-through channel must reproduce the ideal path exactly: same
// deliveries, collisions, transmissions, and zero adversity counters.
func TestNopChannelMatchesIdeal(t *testing.T) {
	g := graph.GNP(40, 0.12, 3)
	for _, cd := range []bool{false, true} {
		ideal := randomNet(g, cd, nil, 7)
		ideal.Run(200)
		nop := randomNet(g, cd, Nop{}, 7)
		nop.Run(200)
		a, b := ideal.Stats(), nop.Stats()
		if a != b {
			t.Fatalf("cd=%v: Nop channel diverged from ideal:\nideal %+v\nnop   %+v", cd, a, b)
		}
		if b.Dropped != 0 || b.Jammed != 0 {
			t.Fatalf("cd=%v: Nop channel counted adversity: %+v", cd, b)
		}
	}
}

func TestErasureExtremes(t *testing.T) {
	g := graph.Grid(5, 5)
	full := randomNet(g, true, NewErasure(1, 9), 5)
	full.Run(100)
	st := full.Stats()
	if st.Deliveries != 0 || st.CollisionObs != 0 {
		t.Fatalf("p=1 erasure delivered: %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatal("p=1 erasure dropped nothing")
	}
	none := randomNet(g, true, NewErasure(0, 9), 5)
	none.Run(100)
	ideal := randomNet(g, true, nil, 5)
	ideal.Run(100)
	if none.Stats() != ideal.Stats() {
		t.Fatalf("p=0 erasure diverged from ideal:\n%+v\n%+v", ideal.Stats(), none.Stats())
	}
}

func TestErasureDeterminism(t *testing.T) {
	g := graph.GNP(30, 0.15, 2)
	run := func() radio.Stats {
		nw := randomNet(g, true, NewErasure(0.3, 11), 4)
		nw.Run(300)
		return nw.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("erasure nondeterministic:\n%+v\n%+v", a, b)
	}
}

// Path 0-1-2 with both ends transmitting every round: the middle
// observes ⊤ with CD. Miss=1 must silence every collision; Spurious=1
// must turn every silent listener-round into ⊤ (and be sanitized to
// silence without CD).
func TestNoisyCDMissAndSpurious(t *testing.T) {
	g := graph.Path(3)
	bothEndsTx := func(nw *radio.Network) *radio.Silent {
		tx := func(int64) radio.Action { return radio.Transmit(radio.RawPacket{}) }
		nw.SetProtocol(0, &radio.FuncProtocol{ActFunc: tx})
		nw.SetProtocol(2, &radio.FuncProtocol{ActFunc: tx})
		mid := &radio.Silent{}
		nw.SetProtocol(1, mid)
		return mid
	}

	nw := radio.New(g, radio.Config{CollisionDetection: true, Channel: NewNoisyCD(1, 0, 1)})
	mid := bothEndsTx(nw)
	nw.Run(50)
	if mid.Collisions != 0 {
		t.Fatalf("miss=1 still delivered %d collisions", mid.Collisions)
	}
	if st := nw.Stats(); st.Jammed != 50 {
		t.Fatalf("miss=1 jammed = %d, want 50", st.Jammed)
	}

	// Spurious ⊤: everyone silent, one listener; every round becomes ⊤.
	nw2 := radio.New(g, radio.Config{CollisionDetection: true, Channel: NewNoisyCD(0, 1, 1)})
	probe := &radio.Silent{}
	nw2.SetProtocol(0, probe)
	nw2.SetProtocol(1, &radio.Silent{})
	nw2.SetProtocol(2, &radio.Silent{})
	nw2.Run(20)
	if probe.Collisions != 20 || probe.Packets != 0 {
		t.Fatalf("spurious=1 with CD: %+v", probe)
	}

	// Without CD the spurious symbol is sanitized to silence.
	nw3 := radio.New(g, radio.Config{Channel: NewNoisyCD(0, 1, 1)})
	probe3 := &radio.Silent{}
	nw3.SetProtocol(0, probe3)
	nw3.SetProtocol(1, &radio.Silent{})
	nw3.SetProtocol(2, &radio.Silent{})
	nw3.Run(20)
	if probe3.Collisions != 0 || probe3.Packets != 0 {
		t.Fatalf("spurious ⊤ leaked through a no-CD network: %+v", probe3)
	}
}

// An adaptive jammer with budget B destroys exactly the first B active
// rounds, then falls silent and lets traffic through.
func TestAdaptiveJammerBudget(t *testing.T) {
	g := graph.Path(2)
	j := NewAdaptiveJammer(10, 1, 3)
	nw := radio.New(g, radio.Config{CollisionDetection: true, Channel: j})
	nw.SetProtocol(0, &radio.FuncProtocol{ActFunc: func(int64) radio.Action {
		return radio.Transmit(radio.RawPacket{})
	}})
	probe := &radio.Silent{}
	nw.SetProtocol(1, probe)
	nw.Run(50)
	if j.Spent() != 10 {
		t.Fatalf("spent = %d, want 10", j.Spent())
	}
	if probe.Collisions != 10 || probe.Packets != 40 {
		t.Fatalf("probe: collisions=%d packets=%d, want 10,40", probe.Collisions, probe.Packets)
	}
	if st := nw.Stats(); st.Jammed != 10 {
		t.Fatalf("jammed = %d, want 10", st.Jammed)
	}
}

// An oblivious jammer never exceeds its budget and keys its rounds off
// the seed, not the traffic.
func TestObliviousJammerBudget(t *testing.T) {
	g := graph.Path(2)
	j := NewJammer(5, 1, 4) // rate 1: jams the first 5 rounds
	nw := radio.New(g, radio.Config{CollisionDetection: true, Channel: j})
	nw.SetProtocol(0, &radio.FuncProtocol{ActFunc: func(int64) radio.Action {
		return radio.Transmit(radio.RawPacket{})
	}})
	probe := &radio.Silent{}
	nw.SetProtocol(1, probe)
	nw.Run(30)
	if j.Spent() != 5 || probe.Collisions != 5 || probe.Packets != 25 {
		t.Fatalf("spent=%d probe=%+v", j.Spent(), probe)
	}
}

// A crashed radio stops transmitting and hearing; a late-wakeup radio
// misses everything before its wake round.
func TestFaults(t *testing.T) {
	g := graph.Path(2)
	f := NewFaults(2)
	f.SetCrash(0, 10) // transmitter dies at round 10
	f.SetWake(1, 5)   // listener's radio off before round 5
	nw := radio.New(g, radio.Config{Channel: f})
	nw.SetProtocol(0, &radio.FuncProtocol{ActFunc: func(int64) radio.Action {
		return radio.Transmit(radio.RawPacket{})
	}})
	probe := &radio.Silent{}
	nw.SetProtocol(1, probe)
	nw.Run(30)
	// Rounds 0-4: listener dead (inbound links erased). Rounds 5-9:
	// delivered. Round 10+: transmitter dead (suppressed at source).
	if probe.Packets != 5 {
		t.Fatalf("packets = %d, want 5", probe.Packets)
	}
	st := nw.Stats()
	if st.Dropped != 25 { // 5 dead-receiver links + 20 suppressed transmissions
		t.Fatalf("dropped = %d, want 25", st.Dropped)
	}
	if st.Jammed != 0 { // link-level erasure means silence was already tentative
		t.Fatalf("jammed = %d, want 0", st.Jammed)
	}
}

// Stacked models compose: loss thins a collision into a reception, the
// jammer destroys it anyway.
func TestStackComposes(t *testing.T) {
	g := graph.Grid(4, 4)
	run := func() radio.Stats {
		ch := Stack{NewErasure(0.2, 21), NewAdaptiveJammer(15, 2, 22), NewNoisyCD(0.3, 0.05, 23)}
		nw := randomNet(g, true, ch, 6)
		nw.Run(200)
		return nw.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("stack nondeterministic:\n%+v\n%+v", a, b)
	}
	if a.Dropped == 0 || a.Jammed == 0 {
		t.Fatalf("stack produced no adversity: %+v", a)
	}
}

func TestRandomFaultsProtectsSource(t *testing.T) {
	f := RandomFaults(50, 7, 0.5, 100, 0.5, 1000, 3)
	if f.wakeAt[7] != 0 || f.crashAt[7] != -1 {
		t.Fatalf("source faulted: wake=%d crash=%d", f.wakeAt[7], f.crashAt[7])
	}
	faulted := 0
	for v := 0; v < 50; v++ {
		if f.wakeAt[v] != 0 || f.crashAt[v] != -1 {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("no node faulted at 50% rates")
	}
}

// One Jammer instance reused across runs must behave like a fresh
// instance per run once Reset is called between them — the reuse
// contract of radio.ResettableChannel. Without the Reset, the second
// run would find the budget silently drained.
func TestJammerResetRestoresBudget(t *testing.T) {
	g := graph.Grid(4, 4)
	run := func(ch radio.Channel) radio.Stats {
		nw := randomNet(g, true, ch, 6)
		nw.Run(150)
		return nw.Stats()
	}
	fresh1 := run(NewAdaptiveJammer(20, 1, 9))
	fresh2 := run(NewAdaptiveJammer(20, 1, 9))
	shared := NewAdaptiveJammer(20, 1, 9)
	got1 := run(shared)
	radio.ResetChannel(shared)
	got2 := run(shared)
	if got1 != fresh1 || got2 != fresh2 {
		t.Fatalf("reset-reused jammer diverged from fresh instances:\nfresh %+v / %+v\nreuse %+v / %+v",
			fresh1, fresh2, got1, got2)
	}
	// Control: withOUT the reset the second run must differ (the budget
	// is spent), proving the Reset is what restores parity.
	drained := NewAdaptiveJammer(20, 1, 9)
	run(drained)
	if leak := run(drained); leak == fresh2 {
		t.Fatal("un-reset jammer matched a fresh run; budget state is not being carried at all")
	}
	// Stacks forward Reset to their resettable members.
	stackFresh := run(Stack{NewErasure(0.1, 31), NewAdaptiveJammer(20, 1, 9)})
	st := Stack{NewErasure(0.1, 31), NewAdaptiveJammer(20, 1, 9)}
	run(st)
	radio.ResetChannel(st)
	if got := run(st); got != stackFresh {
		t.Fatalf("reset-reused stack diverged from fresh: %+v vs %+v", got, stackFresh)
	}
}

// An adaptive jammer stacked after a fault model must not spend budget
// on rounds whose every transmitter is fault-dead: RoundStart receives
// the post-suppression transmitter set. Node 0 transmits every round
// but crashes at round 0, so the channel-visible traffic is empty and
// the jammer must end the run with its full budget.
func TestAdaptiveJammerIgnoresFaultDeadTransmitters(t *testing.T) {
	g := graph.Path(2)
	f := NewFaults(2)
	f.SetCrash(0, 0) // the only transmitter is dead from the start
	j := NewAdaptiveJammer(10, 1, 3)
	nw := radio.New(g, radio.Config{CollisionDetection: true, Channel: Stack{f, j}})
	nw.SetProtocol(0, &radio.FuncProtocol{ActFunc: func(int64) radio.Action {
		return radio.Transmit(radio.RawPacket{})
	}})
	nw.SetProtocol(1, &radio.Silent{})
	nw.Run(40)
	if j.Spent() != 0 {
		t.Fatalf("jammer spent %d budget on fault-dead traffic, want 0", j.Spent())
	}
	// Budget parity: against live traffic the same jammer spends exactly
	// as much stacked with an inert fault table as it does alone.
	alone := NewAdaptiveJammer(10, 1, 3)
	nwA := radio.New(g, radio.Config{CollisionDetection: true, Channel: alone})
	nwA.SetProtocol(0, &radio.FuncProtocol{ActFunc: func(int64) radio.Action {
		return radio.Transmit(radio.RawPacket{})
	}})
	nwA.SetProtocol(1, &radio.Silent{})
	nwA.Run(40)
	stacked := NewAdaptiveJammer(10, 1, 3)
	nwS := radio.New(g, radio.Config{CollisionDetection: true, Channel: Stack{NewFaults(2), stacked}})
	nwS.SetProtocol(0, &radio.FuncProtocol{ActFunc: func(int64) radio.Action {
		return radio.Transmit(radio.RawPacket{})
	}})
	nwS.SetProtocol(1, &radio.Silent{})
	nwS.Run(40)
	if alone.Spent() != stacked.Spent() {
		t.Fatalf("budget parity broken: alone spent %d, stacked-after-faults spent %d",
			alone.Spent(), stacked.Spent())
	}
}

// Offset shifts the round clock an inner model sees: a fault table
// wrapped at base B treats engine round r as global round r+B, so a
// late-wakeup radio whose wake round has passed in an earlier epoch
// stays awake.
func TestOffsetShiftsRoundClock(t *testing.T) {
	f := NewFaults(2)
	f.SetWake(1, 100)
	if !f.SuppressTransmit(50, 1) {
		t.Fatal("radio awake before its wake round")
	}
	o := NewOffset(f, 80)
	if !o.SuppressTransmit(10, 1) { // global round 90 < 100: still dead
		t.Fatal("offset 80: round 10 should still be dead (global 90)")
	}
	if o.SuppressTransmit(25, 1) { // global 105 >= 100: awake
		t.Fatal("offset 80: round 25 should be awake (global 105)")
	}
	// Round-keyed draws continue instead of replaying: an erasure model
	// at offset B answers DropLink(r) exactly like the bare model at
	// r+B.
	e := NewErasure(0.5, 7)
	oe := NewOffset(e, 1000)
	for r := int64(0); r < 200; r++ {
		if oe.DropLink(r, 0, 1) != e.DropLink(r+1000, 0, 1) {
			t.Fatalf("offset erasure diverged from bare model at round %d", r)
		}
	}
}

// The documented Stack ordering contract, property-tested: with Faults
// LAST, a dead radio stays fully deaf — no spurious ⊤ from NoisyCD, no
// jammer injection, no resurrected packet — across randomized stack
// compositions, seeds, and rounds. The converse ordering (Faults
// first) is exactly the resurrection hazard the docs warn about, so
// the test also confirms the hazard is real for at least one
// composition (otherwise the contract would be vacuous).
func TestStackOrderingKeepsDeadRadiosDeaf(t *testing.T) {
	const n = 8
	resurrectionSeen := false
	for trial := 0; trial < 200; trial++ {
		r := rng.New(0x57ac, uint64(trial))
		f := NewFaults(n)
		dead := radio.NodeID(r.Intn(n))
		f.SetWake(dead, 1<<40) // dead for any round the trial probes
		// Random injecting models in random order; Faults last.
		var injectors Stack
		if r.Intn(2) == 0 {
			injectors = append(injectors, NewNoisyCD(0, 1, uint64(r.Intn(1000))))
		}
		if r.Intn(2) == 0 {
			injectors = append(injectors, NewJammer(-1, 1, uint64(r.Intn(1000))))
		}
		if r.Intn(2) == 0 {
			injectors = append(injectors, NewErasure(0.2, uint64(r.Intn(1000))))
		}
		r.Shuffle(len(injectors), func(i, j int) {
			injectors[i], injectors[j] = injectors[j], injectors[i]
		})
		good := append(append(Stack{}, injectors...), f)
		round := int64(r.Intn(10000))
		// Jammers latch their round state in RoundStart.
		good.RoundStart(round, []radio.NodeID{0})
		for _, tentative := range []struct {
			out radio.Outcome
			ok  bool
		}{
			{radio.Outcome{}, false},
			{radio.Outcome{Collision: true}, true},
			{radio.Outcome{Packet: radio.RawPacket{Value: 1}, From: 0}, true},
		} {
			if out, ok := good.Observe(round, dead, 1, tentative.out, tentative.ok); ok {
				t.Fatalf("trial %d: dead radio %d observed %+v through Faults-last stack %T",
					trial, dead, out, injectors)
			}
		}
		if good.SuppressTransmit(round, dead) != true {
			t.Fatalf("trial %d: dead radio %d allowed to transmit", trial, dead)
		}
		// Faults FIRST: injectors may resurrect the silence — the hazard
		// the ordering contract exists to prevent.
		if len(injectors) > 0 {
			bad := append(Stack{f}, injectors...)
			bad.RoundStart(round, []radio.NodeID{0})
			if _, ok := bad.Observe(round, dead, 1, radio.Outcome{}, false); ok {
				resurrectionSeen = true
			}
		}
	}
	if !resurrectionSeen {
		t.Fatal("no Faults-first composition ever resurrected a dead radio; the ordering contract is vacuous")
	}
}

func TestChanceBounds(t *testing.T) {
	if chance(0, rng.Mix(1, 2)) {
		t.Fatal("p=0 fired")
	}
	if !chance(1, rng.Mix(1, 2)) {
		t.Fatal("p=1 did not fire")
	}
	hits := 0
	for i := 0; i < 10000; i++ {
		if chance(0.3, rng.Mix(42, uint64(i))) {
			hits++
		}
	}
	if hits < 2700 || hits > 3300 {
		t.Fatalf("p=0.3 hit rate %d/10000", hits)
	}
}

// TestPrefixDrawsMatchMix replays the models' per-link and
// per-listener draws through the variadic rng.Mix, their definition:
// the prefixes the constructors build must not move any stream.
func TestPrefixDrawsMatchMix(t *testing.T) {
	const seed = 0x5eed
	x := []float64{0, 1, 2.2, 0.4}
	y := []float64{0, 0, 0.1, 1.3}
	e := NewErasure(0.4, seed)
	re := NewRangeErasure(x, y, 0.5, 3, seed)
	cd := NewNoisyCD(0.5, 0.3, seed)
	for r := int64(0); r < 64; r++ {
		for from := radio.NodeID(0); from < 4; from++ {
			for to := radio.NodeID(0); to < 4; to++ {
				link := linkKey(from, to)
				if got, want := e.DropLink(r, from, to), chance(0.4, rng.Mix(seed, 0xe7a5, uint64(r), link)); got != want {
					t.Fatalf("Erasure.DropLink(%d, %d, %d) = %v, Mix says %v", r, from, to, got, want)
				}
				dx, dy := x[to]-x[from], y[to]-y[from]
				d := math.Sqrt(dx*dx + dy*dy)
				want := d > 0.5 && chance((d-0.5)/2.5, rng.Mix(seed, 0xd157, uint64(r), link))
				if got := re.DropLink(r, from, to); got != want {
					t.Fatalf("RangeErasure.DropLink(%d, %d, %d) = %v, Mix says %v", r, from, to, got, want)
				}
			}
			_, heard := cd.Observe(r, from, 2, radio.Outcome{Collision: true}, true)
			if want := !chance(0.5, rng.Mix(seed, 0x6d15, uint64(r), uint64(from))); heard != want {
				t.Fatalf("NoisyCD missed ⊤ at (%d, %d): heard %v, Mix says %v", r, from, heard, want)
			}
			_, heard = cd.Observe(r, from, 0, radio.Outcome{}, false)
			if want := chance(0.3, rng.Mix(seed, 0x59c4, uint64(r), uint64(from))); heard != want {
				t.Fatalf("NoisyCD spurious ⊤ at (%d, %d): %v, Mix says %v", r, from, heard, want)
			}
		}
	}
}

// TestLinkOnlyCapability pins every stock model's radio.IsLinkOnly
// answer. Only the models whose Observe is the identity opt in: the
// dense engine skips their Observe sweep, so a wrong true would
// silently drop a model's observation rewrites. Stacks are link-only
// when non-empty with every member link-only; Offset forwards.
func TestLinkOnlyCapability(t *testing.T) {
	rangeErasure := NewRangeErasure([]float64{0, 1}, []float64{0, 0}, 0.5, 1.5, 3)
	models := []struct {
		name string
		ch   radio.Channel
		want bool
	}{
		{"nop", Nop{}, false},
		{"erasure", NewErasure(0.1, 1), true},
		{"range-erasure", rangeErasure, true},
		{"noisy-cd", NewNoisyCD(0.1, 0.1, 1), false},
		{"jammer", NewJammer(4, 0.5, 1), false},
		{"adaptive-jammer", NewAdaptiveJammer(4, 1, 1), false},
		{"faults", NewFaults(2), false},
		{"empty-stack", Stack{}, false},
		{"nil-stack", Stack(nil), false},
		{"erasure-stack", Stack{NewErasure(0.1, 1), rangeErasure}, true},
		{"mixed-stack", Stack{NewErasure(0.1, 1), NewNoisyCD(0.1, 0.1, 1)}, false},
		{"faults-last-stack", Stack{NewErasure(0.1, 1), NewFaults(2)}, false},
		{"nested-stack", Stack{Stack{NewErasure(0.1, 1)}, NewOffset(rangeErasure, 5)}, true},
	}
	for _, m := range models {
		if got := radio.IsLinkOnly(m.ch); got != m.want {
			t.Errorf("%s: IsLinkOnly = %v, want %v", m.name, got, m.want)
		}
		if got := radio.IsLinkOnly(NewOffset(m.ch, 7)); got != m.want {
			t.Errorf("offset over %s: IsLinkOnly = %v, want %v", m.name, got, m.want)
		}
	}
	if radio.IsLinkOnly(nil) {
		t.Error("nil channel reports link-only")
	}
}
