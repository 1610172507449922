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

// PullRounds reports how many rounds d counted by pull since NewDense
// or Reset.
func (d *Dense) PullRounds() int64 { return d.pulls }
