package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolverDecodesRandomSystem(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(24)
		m := 1 + r.Intn(48)
		// Ground-truth messages.
		msgs := make([]Vec, k)
		for i := range msgs {
			msgs[i] = RandomVec(m, r.Uint64)
		}
		s := NewSolver(k, m)
		// Feed random combinations until solvable (with a cap).
		for tries := 0; tries < 20*k+50 && !s.CanSolve(); tries++ {
			coeff := RandomVec(k, r.Uint64)
			payload := New(m)
			for i := 0; i < k; i++ {
				if coeff.Get(i) {
					payload.XorInPlace(msgs[i])
				}
			}
			s.Add(coeff, payload)
		}
		if !s.CanSolve() {
			return false
		}
		got, ok := s.Solve()
		if !ok {
			return false
		}
		for i := range msgs {
			if !Equal(got[i], msgs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSolverUnderdetermined(t *testing.T) {
	s := NewSolver(3, 4)
	s.Add(Unit(3, 0), New(4))
	if s.CanSolve() {
		t.Fatal("solver claims solvable with rank 1 of 3")
	}
	if _, ok := s.Solve(); ok {
		t.Fatal("Solve succeeded while underdetermined")
	}
}

func TestSolverRankNeverExceedsK(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	s := NewSolver(5, 8)
	for i := 0; i < 100; i++ {
		s.Add(RandomVec(5, r.Uint64), RandomVec(8, r.Uint64))
		if s.Rank() > 5 {
			t.Fatalf("rank %d > k", s.Rank())
		}
	}
	if !s.CanSolve() {
		t.Fatal("100 random equations did not reach full rank (prob < 2^-90)")
	}
}
