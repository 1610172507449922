package obs

// RoundSnapshot is the engine's cumulative counter state at an
// observed round — a plain value struct (no engine types) so this
// package stays dependency-free and a snapshot costs zero heap.
// Fields mirror radio.Stats; see that type for the counter semantics.
type RoundSnapshot struct {
	// Round is the round that just executed.
	Round int64
	// Cumulative engine counters as of this round.
	Transmissions int64
	Deliveries    int64
	CollisionObs  int64
	Dropped       int64
	Jammed        int64
	BusyRounds    int64
	SilentRounds  int64
	MaxFrontier   int64
}

// RoundObserver receives engine round snapshots. Both engines
// (radio.Network and radio.Dense) invoke it synchronously from the
// stepping goroutine at a configurable round stride, after the round's
// deliveries; a nil observer is never consulted and preserves the
// zero-allocation hot path byte-for-byte (the same contract as a nil
// radio.Config.Channel). Implementations must not block: they run on
// the simulation's critical path. An observer must not perturb the run
// — it sees counters, it does not touch protocol or engine state.
type RoundObserver interface {
	OnRound(s RoundSnapshot)
}

// ObserverFunc adapts a function to RoundObserver.
type ObserverFunc func(s RoundSnapshot)

// OnRound implements RoundObserver.
func (f ObserverFunc) OnRound(s RoundSnapshot) { f(s) }
