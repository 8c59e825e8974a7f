package boolcirc

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/circuit.golden from the current implementation")

// TestCircuitGolden pins the byte layout of an encoded ReLU circuit against
// a digest generated through the hand-written codec that preceded
// internal/bin. The line is "circuit bytes sha256".
func TestCircuitGolden(t *testing.T) {
	raw, err := BuildReLU(ReLUSpec{P: 786433, Frac: 8}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("relu-p20-f8 %d %x\n", len(raw), sha256.Sum256(raw))

	path := filepath.Join("testdata", "circuit.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("circuit encoding changed (run with -update only for a deliberate format bump)\ngot:\n%swant:\n%s", got, want)
	}
}
