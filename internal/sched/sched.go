// Package sched provides the round-clock arithmetic shared by the
// protocols.
//
// Every protocol in the paper is globally clocked: all schedule lengths
// are fixed functions of n and D, so each node can derive its current
// position purely from the round number. This package holds the two
// pieces every schedule uses — the decomposition of a round into
// (iteration, offset) of a repeating block, and the ⌈log2 n⌉ schedule
// parameter — so they are tested once.
package sched

// Cycle decomposes a round into (iteration, offset) for an infinitely
// repeating block of the given period.
func Cycle(r, period int64) (iter, off int64) {
	if period <= 0 {
		panic("sched: non-positive period")
	}
	if r < 0 {
		panic("sched: negative round")
	}
	return r / period, r % period
}

// CeilLog2 returns ceil(log2(n)) for n >= 1; CeilLog2(1) == 0.
func CeilLog2(n int) int {
	if n < 1 {
		panic("sched: CeilLog2 of non-positive value")
	}
	l := 0
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}

// LogN returns the schedule parameter ⌈log2 n⌉ used throughout the
// paper, clamped below at 1 so degenerate graphs (n ≤ 2) still get
// non-empty phases.
func LogN(n int) int {
	l := CeilLog2(max(n, 2))
	if l < 1 {
		return 1
	}
	return l
}
