package main

import (
	"bytes"
	"strings"
	"testing"

	"radiocast/internal/exp"
)

// TestCellDigestsReadArtifact checks that digesting a radiobench -json
// blob gives what the in-memory artifact digests to: wall times,
// memory and the run's parallelism do not enter the digest, every
// reproducible field does.
func TestCellDigestsReadArtifact(t *testing.T) {
	mk := func(wall, mem int64, parallelism int, rounds int64) *exp.Artifact {
		a := exp.NewArtifact(1, false, parallelism)
		a.Experiments = []exp.ExperimentRecord{{ID: "E19", Title: "t", WallMicros: wall, Cells: []exp.CellRecord{{
			Experiment: "E19", Config: "decay/gnp/n=100000", Rounds: rounds, Completed: true,
			Value: 0.1 + 0.2, MemBytes: mem, PeakRSS: mem, WallMicros: wall,
		}}}}
		return a
	}
	want, err := mk(0, 0, 1, 127).CellDigests()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := mk(12345, 678, 8, 127).JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cellDigests(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got["E19/cells"] != want["E19/cells"] || len(got) != 1 {
		t.Fatalf("artifact digests %v, want %v", got, want)
	}
	moved, _ := mk(0, 0, 1, 128).CellDigests()
	if moved["E19/cells"] == want["E19/cells"] {
		t.Fatal("a changed round count left the digest unchanged")
	}
}

func TestCheckCells(t *testing.T) {
	pins := map[string]string{"E19/cells": "aa", "E20/cells": "bb"}
	for _, tc := range []struct {
		name string
		got  map[string]string
		fail string
	}{
		{"match", map[string]string{"E19/cells": "aa", "E20/cells": "bb"}, ""},
		{"moved", map[string]string{"E19/cells": "aa", "E20/cells": "cc"}, "E20/cells: digest cc"},
		{"missing", map[string]string{"E19/cells": "aa"}, "E20/cells: pinned experiment missing"},
		{"unpinned", map[string]string{"E19/cells": "aa", "E20/cells": "bb", "E21/cells": "dd"}, "E21/cells: no pinned digest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			failed := checkCells(pins, tc.got, &out)
			if failed != (tc.fail != "") || !strings.Contains(out.String(), tc.fail) {
				t.Fatalf("failed = %v, output:\n%s", failed, out.String())
			}
		})
	}
}
