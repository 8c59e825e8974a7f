package figures

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current figures")

// TestCommandGoldens pins the `-fig all` output of pichar, piopt and pisim
// (at -runs 1 and 2) byte for byte.
func TestCommandGoldens(t *testing.T) {
	cases := []struct {
		file    string
		reports []Report
		runs    int
	}{
		{"pichar", Characterization, 0},
		{"piopt", Optimization, 0},
		{"pisim_runs1", Workload, 1},
		{"pisim_runs2", Workload, 2},
	}
	for _, c := range cases {
		var b strings.Builder
		for _, r := range c.reports {
			b.WriteString(r.Text(c.runs) + "\n")
		}
		path := filepath.Join("testdata", c.file+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%s: output differs from %s:\n%s", c.file, path, got)
		}
	}
}
