package main

import (
	"strings"
	"testing"
)

// TestValidateFlags covers every rejection rule of validateFlags, plus
// coherent combinations that must pass.
func TestValidateFlags(t *testing.T) {
	ok := channelFlags{mode: "auto", band: 1}
	for _, c := range []struct {
		name      string
		kind      string
		protocol  string
		pipelined bool
		cf        channelFlags
		adaptive  bool
		maxEpochs int
		want      string // "" = accepted
	}{
		{"plain cd", "clusterchain", "cd", false, ok, false, 0, ""},
		{"pipelined k-cd", "clusterchain", "k-cd", true, ok, false, 0, ""},
		{"adaptive decay", "grid", "decay", false, ok, true, 4, ""},
		{"qudg band", "geo-uniform", "decay", false, channelFlags{mode: "auto", band: 1.5}, false, 0, ""},
		{"unknown protocol left to dispatch", "grid", "gossip", false, ok, true, 0, ""},
		{"pipelined decay", "grid", "decay", true, ok, false, 0,
			`-pipelined only applies to the distributed GST builds of -protocol cd and k-cd (got "decay")`},
		{"band below 1", "geo-uniform", "decay", false, channelFlags{mode: "auto", band: 0.5}, false, 0,
			"-band must be >= 1"},
		{"band on non-geo", "grid", "decay", false, channelFlags{mode: "auto", band: 2}, false, 0,
			"-band needs a position-aware workload"},
		{"jamadaptive without jam", "grid", "decay", false, channelFlags{mode: "auto", band: 1, jamAdaptive: true}, false, 0,
			"-jamadaptive needs a jammer"},
		{"maxepochs without adaptive", "grid", "decay", false, ok, false, 3, "-maxepochs only applies to -adaptive runs"},
		{"negative maxepochs", "grid", "decay", false, ok, true, -1, "-maxepochs must be >= 0"},
		{"adaptive k-known", "grid", "k-known", false, ok, true, 0, "-adaptive is not supported by -protocol k-known"},
	} {
		err := validateFlags(c.kind, c.protocol, c.pipelined, c.cf, c.adaptive, c.maxEpochs)
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
