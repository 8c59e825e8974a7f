package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"privinf/internal/delphi"
	"privinf/internal/obs"
)

var promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// parsePromText validates Prometheus text exposition format and
// returns the set of family names with a # TYPE line and the set of
// sample series names seen.
func parsePromText(t *testing.T, body string) (types map[string]string, samples map[string]int) {
	t.Helper()
	types = map[string]string{}
	samples = map[string]int{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparseable sample %q", ln+1, line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil && m[3] != "+Inf" {
			t.Fatalf("line %d: bad value %q", ln+1, line)
		}
		// A histogram's samples use the family name with a suffix.
		name := m[1]
		base := name
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, sfx); ok && types[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("line %d: sample %q precedes its TYPE declaration", ln+1, line)
		}
		samples[name]++
	}
	return types, samples
}

// TestDebugServerMetrics drives one real session through an engine,
// then asserts the /metrics endpoint parses as Prometheus text and
// carries every series the obs registry has registered — including
// the per-model phase histograms — and that /statusz and
// /debug/pprof/ respond.
func TestDebugServerMetrics(t *testing.T) {
	model := testModel(t, 31)
	_, ln := startEngine(t, Config{
		Registry:         testRegistry(t, model),
		Variant:          delphi.ClientGarbler,
		BufferPerSession: 1,
		StorageBudget:    -1,
		OfflineWorkers:   1,
	})
	c, err := Dial(ln.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]uint64, model.InputLen())
	if _, _, _, err := c.Infer(x); err != nil {
		t.Fatal(err)
	}
	c.Close()

	d, err := NewDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", d.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	types, samples := parsePromText(t, body)

	// Every family registered on the obs registry with at least one
	// series must be present in the exposition.
	for _, f := range obs.Default().Gather() {
		if len(f.Samples) == 0 {
			continue
		}
		kind, ok := types[f.Name]
		if !ok {
			t.Errorf("registered family %s missing from /metrics", f.Name)
			continue
		}
		if kind != f.Kind {
			t.Errorf("family %s exported as %s, registered as %s", f.Name, kind, f.Kind)
		}
		probe := f.Name
		if f.Kind == "histogram" {
			probe += "_count"
		}
		if samples[probe] == 0 {
			t.Errorf("family %s has no samples in /metrics", f.Name)
		}
	}

	// The paper's phase taxonomy must be present per model, plus the
	// handshake and resume-tier counters.
	for _, series := range []string{
		`pi_offline_he_seconds_count{model="default"}`,
		`pi_offline_garble_seconds_count{model="default"}`,
		`pi_offline_ot_seconds_count{model="default"}`,
		`pi_online_seconds_count{model="default"}`,
		`pi_setup_seconds_count{tier="full"}`,
		`pi_handshakes_total{outcome="ok"}`,
		`pi_resume_total{tier="full"}`,
	} {
		if !strings.Contains(body, series+" ") {
			t.Errorf("/metrics missing required series %s", series)
		}
	}

	code, body = get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	var statusz struct {
		Goroutines int             `json:"goroutines"`
		Metrics    json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &statusz); err != nil {
		t.Fatalf("/statusz not valid JSON: %v\n%s", err, body)
	}
	if statusz.Goroutines <= 0 || len(statusz.Metrics) == 0 {
		t.Fatalf("/statusz missing fields: %s", body)
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}
