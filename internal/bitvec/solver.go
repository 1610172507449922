package bitvec

// Solver performs paired Gaussian elimination over GF(2): each inserted
// row is a (coefficient, payload) pair, and once the coefficient rows
// span F_2^k the payload of every unit coefficient vector can be read
// off. This is exactly the RLNC decoding step of Section 3.3.1: a node
// holding k linearly independent coded packets reconstructs all k
// messages "using Gaussian elimination".
type Solver struct {
	k      int
	m      int
	pivots map[int]solverRow
	// scratch holds the equation being reduced. Reduction runs on the
	// scratch pair, so the (overwhelmingly common) dependent insertions
	// allocate nothing; only an independent equation is cloned into a
	// stored row — and even that clone reuses a freed row when the
	// solver has been Reset (the RLNC run-reuse path).
	scratch solverRow
	free    []solverRow // rows released by Reset, recycled by Add
}

type solverRow struct {
	coeff   Vec
	payload Vec
}

// NewSolver returns a solver for k unknowns with m-bit payloads.
func NewSolver(k, m int) *Solver {
	return &Solver{k: k, m: m, pivots: make(map[int]solverRow)}
}

// Reset empties the solver for a new run with the same dimensions.
// Stored rows move to an internal freelist, so a reset-reused solver
// performs no per-row allocation in its next run.
func (s *Solver) Reset() {
	for col, r := range s.pivots {
		s.free = append(s.free, r)
		delete(s.pivots, col)
	}
}

// Rank returns the number of linearly independent rows inserted.
func (s *Solver) Rank() int { return len(s.pivots) }

// CanSolve reports whether all k unknowns are determined.
func (s *Solver) CanSolve() bool { return len(s.pivots) == s.k }

// Add inserts an equation coeff·x = payload. It returns true iff the
// equation was linearly independent of the prior ones. The inputs are
// never retained or modified.
func (s *Solver) Add(coeff, payload Vec) bool {
	if coeff.Len() != s.k || payload.Len() != s.m {
		panic("bitvec: Solver.Add dimension mismatch")
	}
	if s.scratch.coeff.n != s.k || s.scratch.payload.n != s.m {
		s.scratch = solverRow{coeff: New(s.k), payload: New(s.m)}
	}
	c, p := s.scratch.coeff, s.scratch.payload
	c.CopyFrom(coeff)
	p.CopyFrom(payload)
	// Fully reduce the new equation against every stored row so that c
	// ends with zeros at all existing pivot columns.
	for pos := c.LowestSetBit(); pos >= 0; {
		row, ok := s.pivots[pos]
		if !ok {
			pos = c.NextSetBit(pos + 1)
			continue
		}
		c.XorInPlace(row.coeff)
		p.XorInPlace(row.payload)
		pos = c.NextSetBit(pos + 1)
	}
	piv := c.LowestSetBit()
	if piv < 0 {
		return false // dependent; payload is consistent by construction
	}
	// Back-substitute so stored rows keep zeros at the new pivot.
	for col, r := range s.pivots {
		if r.coeff.Get(piv) {
			r.coeff.XorInPlace(c)
			r.payload.XorInPlace(p)
			s.pivots[col] = r
		}
	}
	var stored solverRow
	if n := len(s.free); n > 0 {
		stored = s.free[n-1]
		s.free = s.free[:n-1]
		stored.coeff.CopyFrom(c)
		stored.payload.CopyFrom(p)
	} else {
		stored = solverRow{coeff: c.Clone(), payload: p.Clone()}
	}
	s.pivots[piv] = stored
	return true
}

// Solve returns the k payload vectors (x_0 ... x_{k-1}). It returns
// ok=false if the system is underdetermined.
func (s *Solver) Solve() ([]Vec, bool) {
	if !s.CanSolve() {
		return nil, false
	}
	out := make([]Vec, s.k)
	for i := 0; i < s.k; i++ {
		row := s.pivots[i]
		// Rows are fully reduced, so each coefficient row is a unit vector.
		out[i] = row.payload.Clone()
	}
	return out, true
}
