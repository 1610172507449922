package radiocast

// Stdout pins for the runnable examples: each one is run with `go run`
// and the SHA-256 of its stdout is compared with
// testdata/examples.json. The examples print fixed-seed facade results,
// so any change to what they print is a change to simulation output.
// Regenerate with `go test -run TestExampleOutputPins -update .`, and
// only for an intended, explained output change.

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/examples.json instead of comparing against it")

var examples = []string{"gstexplore", "mmvnoise", "multimessage", "quickstart", "sensornet"}

func TestExampleOutputPins(t *testing.T) {
	path := filepath.Join("testdata", "examples.json")
	want := map[string]string{}
	if !*update {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, name := range examples {
		out, err := exec.Command("go", "run", "./examples/"+name).Output()
		if err != nil {
			t.Fatalf("go run ./examples/%s: %v", name, err)
		}
		got[name] = fmt.Sprintf("%x", sha256.Sum256(out))
		if !*update && got[name] != want[name] {
			t.Errorf("examples/%s stdout digest %s, pinned %s:\n%s", name, got[name], want[name], out)
		}
	}
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
