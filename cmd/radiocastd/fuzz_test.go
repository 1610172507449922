package main

import (
	"strings"
	"testing"
)

// FuzzJobSpec drives arbitrary bodies through the submit handler's
// admission path: decodeSpec (unknown fields rejected), then validate.
// Neither may panic, and every spec validate admits must keep the
// dense engine's worker count within [0, maxJobWorkers], every
// channel rate within [0, 1] and a gnp graph's n within maxGNPN. The
// corpus starts from the fixed-spec pin bodies and a gnp spec on each
// side of the bound.
func FuzzJobSpec(f *testing.F) {
	for _, p := range specPins {
		f.Add(p.spec)
	}
	f.Add(`{"protocol": "decay", "graph": {"kind": "gnp", "n": 32768, "p": 0.001}}`)
	f.Add(`{"protocol": "decay", "graph": {"kind": "gnp", "n": 32769, "p": 0.001}}`)
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := decodeSpec(strings.NewReader(body))
		if err != nil || spec.validate() != nil {
			return
		}
		if spec.Workers < 0 || spec.Workers > maxJobWorkers {
			t.Fatalf("admitted workers %d outside [0,%d]", spec.Workers, maxJobWorkers)
		}
		if spec.Graph.Kind == "gnp" && spec.Graph.N > maxGNPN {
			t.Fatalf("admitted gnp with n = %d > %d", spec.Graph.N, maxGNPN)
		}
		for i, c := range spec.Channel {
			for _, r := range []float64{c.P, c.Miss, c.Spurious, c.Rate, c.LateFrac, c.CrashFrac} {
				if !(r >= 0 && r <= 1) {
					t.Fatalf("channel[%d] admitted with rate %g outside [0,1]: %+v", i, r, c)
				}
			}
			if c.MaxDelay < 0 || c.Horizon < 0 {
				t.Fatalf("channel[%d] admitted with negative max_delay/horizon: %+v", i, c)
			}
		}
	})
}
