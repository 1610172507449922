package main

// The scale-sweep output pin (-cells mode): each experiment of a
// radiobench -json artifact must have the canonical cells digest that
// is committed for it (bench/scale_cells.json). The digest is
// exp.Artifact.CellDigests, the "<ID>/cells" form of
// internal/harness/testdata/golden/quick.json, so it pins each cell's
// config, order, rounds, completion and the other reproducible fields
// of the n = 10^5 sweep against history. Wall times and memory are
// zeroed first, so any machine and any worker count must match.
//
// A pinned experiment missing from the artifact fails, and so does an
// experiment with no pin. Every line prints the artifact's digest, so
// an intended output change regenerates the pins from the output of a
// failing check.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"radiocast/internal/exp"
)

// cellDigests reads a radiobench -json artifact and returns its
// per-experiment cells digests.
func cellDigests(blob []byte) (map[string]string, error) {
	var a exp.Artifact
	if err := json.Unmarshal(blob, &a); err != nil {
		return nil, fmt.Errorf("parse artifact: %w", err)
	}
	return a.CellDigests()
}

// checkCells compares got against the pins, logging one line per key,
// and reports whether any key failed.
func checkCells(pins, got map[string]string, out io.Writer) bool {
	keys := make([]string, 0, len(pins)+len(got))
	for k := range pins {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := pins[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	failed := false
	for _, k := range keys {
		want, pinned := pins[k]
		have, ran := got[k]
		switch {
		case !pinned:
			fmt.Fprintf(out, "benchguard: FAIL %s: no pinned digest (got %s)\n", k, have)
		case !ran:
			fmt.Fprintf(out, "benchguard: FAIL %s: pinned experiment missing from artifact\n", k)
		case have != want:
			fmt.Fprintf(out, "benchguard: FAIL %s: digest %s, pinned %s\n", k, have, want)
		default:
			fmt.Fprintf(out, "benchguard: ok %s: %s\n", k, have)
			continue
		}
		failed = true
	}
	return failed
}

// runCellsGuard runs the -cells mode.
func runCellsGuard(artifactPath, pinsPath string) {
	artBlob, err := os.ReadFile(artifactPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	got, err := cellDigests(artBlob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", artifactPath, err)
		os.Exit(2)
	}
	pinBlob, err := os.ReadFile(pinsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	var pins map[string]string
	if err := json.Unmarshal(pinBlob, &pins); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: parse %s: %v\n", pinsPath, err)
		os.Exit(2)
	}
	if checkCells(pins, got, os.Stderr) {
		os.Exit(1)
	}
}
