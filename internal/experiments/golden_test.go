package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files under testdata/golden from the
// current code:
//
//	go test ./internal/experiments -run TestExperiments -update
//
// Goldens pin experiment output byte-for-byte: any drift in simulator
// behaviour, seed derivation, or rendering shows up as a diff that must
// be re-blessed deliberately.
var update = flag.Bool("update", false, "rewrite golden files from current output")

// checkGolden compares rendered experiment output against its golden
// file. It piggybacks on tests that already paid for the simulation, so
// regression pinning adds no extra sim time.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if string(want) != got {
		t.Errorf("output differs from %s (%s; run with -update to re-bless):\n--- want ---\n%s\n--- got ---\n%s",
			path, diffLine(string(want), got), want, got)
	}
}

// diffLine is a debugging aid for golden mismatches in long renders.
func diffLine(want, got string) string {
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("first divergence at byte %d: %q vs %q", i, want[i], got[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d, got %d", len(want), len(got))
}
