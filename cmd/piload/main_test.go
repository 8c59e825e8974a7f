package main

import (
	"maps"
	"strings"
	"testing"
)

// exposition is a scrape in the shape internal/obs writes: a histogram
// family, a labelled counter and a gauge.
const exposition = `# HELP pi_online_seconds Online phase latency.
# TYPE pi_online_seconds histogram
pi_online_seconds_bucket{model="mlp",le="0.005"} 3
pi_online_seconds_bucket{model="mlp",le="+Inf"} 4
pi_online_seconds_sum{model="mlp"} 0.021
pi_online_seconds_count{model="mlp"} 4
# TYPE pi_resume_total counter
pi_resume_total{outcome="ok"} 2
# TYPE pi_sessions_active gauge
pi_sessions_active 1
`

// TestParseProm: histogram samples fold into their family, the +Inf bucket
// counts toward it, and every sample keeps its full key.
func TestParseProm(t *testing.T) {
	series, families := parseProm(exposition)
	wantFamilies := map[string]int{"pi_online_seconds": 4, "pi_resume_total": 1, "pi_sessions_active": 1}
	if !maps.Equal(families, wantFamilies) {
		t.Fatalf("families %v, want %v", families, wantFamilies)
	}
	if got := series[`pi_online_seconds_count{model="mlp"}`]; got != 4 {
		t.Fatalf("count series %v, want 4", got)
	}
	if got := series[`pi_online_seconds_bucket{model="mlp",le="+Inf"}`]; got != 4 {
		t.Fatalf("+Inf bucket %v, want 4", got)
	}
	if len(series) != 6 {
		t.Fatalf("%d series, want 6: %v", len(series), series)
	}
}

// FuzzParseProm: any body parses without panicking, the same way twice;
// every series key is followed by a space somewhere in the body, no family
// a sample counts toward carries labels, and the families count at least as many samples as
// there are distinct series.
func FuzzParseProm(f *testing.F) {
	f.Add(exposition)
	f.Add("")
	f.Add("# TYPE x histogram\nx_bucket{le=\"1\"} NaN\nx_sum 1e400\nx_count -0\n")
	f.Add("{ 1\n 2\n#TYPE\n# TYPE a b c d\nname{a=\"}\"} 3 4\n")
	f.Add("# TYPE { gauge\n{ 1\n")
	f.Fuzz(func(t *testing.T, body string) {
		series, families := parseProm(body)
		again, againFamilies := parseProm(body)
		if len(again) != len(series) || !maps.Equal(againFamilies, families) {
			t.Fatal("parseProm is not deterministic")
		}
		samples := 0
		for name, n := range families {
			if n < 0 || n > 0 && strings.ContainsRune(name, '{') {
				t.Fatalf("family %q counts %d", name, n)
			}
			samples += n
		}
		if samples < len(series) {
			t.Fatalf("%d samples counted for %d series", samples, len(series))
		}
		for key := range series {
			if !strings.Contains(body, key+" ") {
				t.Fatalf("series key %q is not followed by a space in the body", key)
			}
		}
	})
}
