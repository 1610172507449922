package radio

// Test-only access to the dense engine's counting-direction seam.

// Counting directions for SetDenseDirection.
const (
	DirAuto = dirAuto
	DirPush = dirPush
	DirPull = dirPull
)

// SetDenseDirection forces every Dense round's counting direction
// (DirAuto restores the per-round rule) and returns a func that puts
// the previous setting back.
func SetDenseDirection(dir int) (restore func()) {
	prev := denseDirection
	denseDirection = dir
	return func() { denseDirection = prev }
}

// PullRounds reports how many rounds d counted by pull since NewDense.
func (d *Dense) PullRounds() int64 { return d.pulls }

// SummaryWords returns s's frontier and newly words with their
// one-bit-per-word summaries.
func (s *Spread) SummaryWords() (frontier, frontierSum, newly, newlySum []uint64) {
	return s.frontier, s.frontierSum, s.newly, s.newlySum
}

// PushBits returns d's heard and multi push bitsets.
func (d *Dense) PushBits() (heard, multi []uint64) { return d.heard, d.multi }
