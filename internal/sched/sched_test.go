package sched

import "testing"

func TestCycle(t *testing.T) {
	iter, off := Cycle(17, 5)
	if iter != 3 || off != 2 {
		t.Fatalf("Cycle(17,5) = (%d,%d)", iter, off)
	}
	iter, off = Cycle(0, 5)
	if iter != 0 || off != 0 {
		t.Fatalf("Cycle(0,5) = (%d,%d)", iter, off)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLogNClamped(t *testing.T) {
	if LogN(1) < 1 || LogN(2) < 1 {
		t.Fatal("LogN must be >= 1")
	}
	if LogN(1024) != 10 {
		t.Fatalf("LogN(1024) = %d", LogN(1024))
	}
}
