package main

import (
	"strings"
	"testing"
)

// TestValidateFlags covers every rejection rule of validateFlags, plus
// coherent combinations that must pass.
func TestValidateFlags(t *testing.T) {
	for _, c := range []struct {
		name         string
		seeds        int
		format       string
		ids          []string
		scaleMaxN    int
		scaleWorkers int
		workers      int
		roundLimit   int64
		want         string // "" = accepted
	}{
		{"defaults", 3, "text", nil, 100_000, 0, 0, 0, ""},
		{"acceptance scale run", 1, "text", []string{"E19", "E20", "E21", "E22"}, 1_000_000, 8, 0, 0, ""},
		{"markdown with limits", 2, "markdown", []string{"E9", "A1"}, 1, 1, 4, 1 << 20, ""},
		{"csv", 1, "csv", []string{"E1"}, 100_000, 0, 0, 0, ""},
		{"zero seeds", 0, "text", []string{"E9"}, 100_000, 0, 0, 0, "-seeds must be >= 1, got 0"},
		{"negative seeds", -2, "text", []string{"E19"}, 100_000, 0, 0, 0, "-seeds must be >= 1, got -2"},
		{"unknown format", 1, "yaml", nil, 100_000, 0, 0, 0, `-format must be one of text, csv, markdown, got "yaml"`},
		{"negative scalemaxn", 1, "text", nil, -7, 0, 0, 0, "-scalemaxn must be >= 1, got -7"},
		{"zero scalemaxn", 1, "text", nil, 0, 0, 0, 0, "-scalemaxn must be >= 1, got 0"},
		{"negative scaleworkers", 1, "text", nil, 100_000, -1, 0, 0, "-scaleworkers must be >= 0"},
		{"negative workers", 1, "text", nil, 100_000, 0, -3, 0, "-workers must be >= 0"},
		{"negative roundlimit", 1, "text", nil, 100_000, 0, 0, -5, "-roundlimit must be >= 0"},
		{"unknown id", 1, "text", []string{"E9", "E99"}, 100_000, 0, 0, 0, `unknown experiment id "E99"`},
		{"empty id", 1, "text", []string{"E9", ""}, 100_000, 0, 0, 0, `unknown experiment id ""`},
	} {
		err := validateFlags(c.seeds, c.format, c.ids, c.scaleMaxN, c.scaleWorkers, c.workers, c.roundLimit)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted, want %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q, want it to contain %q", c.name, err, c.want)
		}
	}
}
