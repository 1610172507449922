package gstdist

// PipeRank and PipeRole expose the pipelined segment B's per-phase
// arithmetic, exactly as Protocol runs it, to the invariant tests.

// PipeRank returns the rank boundary b processes in phase (0 if none).
func PipeRank(cfg Config, b, phase int) int { return pipeProbe(cfg, 0).pipeRank(b, phase) }

// PipeRole returns the boundary a node at the given construction level
// serves in phase and whether it plays the blue role there; ok is false
// when it serves none.
func PipeRole(cfg Config, level, phase int) (b int, blue, ok bool) {
	rank, blue := pipeProbe(cfg, level).pipeRole(phase)
	b = cfg.DBound - level
	if !blue {
		b--
	}
	return b, blue, rank > 0
}

func pipeProbe(cfg Config, level int) *Protocol {
	return &Protocol{cfg: cfg, maxRank: cfg.Assign.MaxRank(), level: int32(level)}
}
