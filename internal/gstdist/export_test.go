package gstdist

// BoundaryRank and BoundaryRole expose segment B's per-phase
// arithmetic, exactly as Protocol runs it, to the invariant tests.

// BoundaryRank returns the rank boundary b processes in phase (0 if
// none).
func BoundaryRank(cfg Config, b, phase int) int { return probe(cfg, 0).boundaryRank(b, phase) }

// BoundaryRole returns the boundary a node at the given construction
// level serves in phase and whether it plays the blue role there; ok
// is false when it serves none.
func BoundaryRole(cfg Config, level, phase int) (b int, blue, ok bool) {
	rank, blue := probe(cfg, level).role(phase)
	b = cfg.DBound - level
	if !blue {
		b--
	}
	return b, blue, rank > 0
}

func probe(cfg Config, level int) *Protocol {
	return &Protocol{cfg: cfg, maxRank: cfg.Assign.MaxRank(), level: int32(level)}
}
