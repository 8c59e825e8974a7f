package main

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesTables keeps BENCHMARK.json and the Go tables one
// definition: same workloads, metrics, units and directions, in order.
func TestSpecMatchesTables(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		name(w.name)
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			name(d.name)
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better is %q", d.name, d.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, layerDefs())
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m := spec.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", m)
	}
}

// TestMovesNameRealMetrics checks the layer → end-to-end predictions refer
// to things that exist.
func TestMovesNameRealMetrics(t *testing.T) {
	metrics := map[string]bool{}
	for _, m := range endToEnd {
		metrics[m.name] = true
	}
	for _, l := range perLayer {
		for _, mv := range l.moves {
			if !metrics[mv.metric] {
				t.Errorf("%s moves %q, which is not an end-to-end metric", l.name, mv.metric)
			}
			for _, wn := range mv.workloads {
				if _, ok := findWorkload(wn); !ok && wn != "all" {
					t.Errorf("%s moves %s on %q, which is not a workload", l.name, mv.metric, wn)
				}
			}
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	w, _ := findWorkload("fleet_mix")
	p, err := demoModels(w)
	if err != nil {
		t.Fatal(err)
	}
	window := 20 * time.Second
	a := newGenerator(w, p, 7).schedule(window)
	b := newGenerator(w, p, 7).schedule(window)
	c := newGenerator(w, p, 8).schedule(window)
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if want := int(w.rate * window.Seconds()); len(a) != want || len(c) != want {
		t.Errorf("schedules hold %d and %d sessions, want %d: every seed must offer the same load", len(a), len(c), want)
	}
	var cold, mlp int
	for i, s := range a {
		if i > 0 && s.due < a[i-1].due {
			t.Errorf("session %d is due before session %d", i, i-1)
		}
		if s.due < 0 || s.due >= window {
			t.Errorf("session %d is due at %v, outside the window", i, s.due)
		}
		if s.client < 0 {
			cold++
		}
		if s.model == modelMLP {
			mlp++
		}
	}
	if cold != len(a)/5 || mlp != 3*len(a)/10 {
		t.Errorf("%d sessions: %d cold, %d MLP; want exactly 20%% and 30%%", len(a), cold, mlp)
	}
}

// TestWorkloadsAtToySize runs every workload end to end at toy size and
// checks that each metric BENCHMARK.json names is measured. The per-layer
// path (traced half-window, delphi harness, kernel ladder, probes) runs on
// the Server-Garbler workload and on the fleet, which between them cover
// both garbler roles and the router.
func TestWorkloadsAtToySize(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			w := w.toy()
			window := 300 * time.Millisecond
			if w.open {
				window = 600 * time.Millisecond
			}
			p, err := prepare(w, 1, 2, toyScale)
			if err != nil {
				t.Fatal(err)
			}
			defer p.e.Close()

			r, metrics := p.endToEnd(window)
			if r.failed() != 0 || r.attempted() == 0 {
				t.Fatalf("%d of %d operations failed: %v", r.failed(), r.attempted(), r.firstError)
			}
			emitted(t, metrics, endToEnd)
			for _, m := range endToEnd {
				// A toy session on a loaded machine may miss its latency limit;
				// everything else is a count or a time of work that was done.
				if metrics[m.name] <= 0 && m.name != "slo_ok_ratio" {
					t.Errorf("%s = %v: end-to-end metrics must never be 0", m.name, metrics[m.name])
				}
			}

			if w.name == "onthefly_sg" || w.name == "fleet_mix" {
				r, metrics, tr, err := p.layers(2*window, 100, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed() != 0 {
					t.Fatalf("%d operations failed: %v", r.failed(), r.firstError)
				}
				emitted(t, metrics, layerDefs())
				for _, s := range tr.spans {
					if s.EndNs < s.StartNs || s.Name == "" || s.Parent >= s.ID {
						t.Errorf("malformed span %+v", s)
					}
				}
			}

			// Latency counts from when the session was due, not from when it
			// started: a session handed over a second late is a second slower.
			// One workload shows it; the session code is shared.
			if w.name != "buffered_cg" {
				return
			}
			late := &results{}
			runSession(p.e, p.g.session(), time.Now().Add(-time.Second), late, nil)
			if s := late.sessions[0]; s.err != nil || s.first < time.Second || s.lag < time.Second || s.connect >= time.Second {
				t.Errorf("session due 1 s ago: first result after %v, lag %v, connect %v (err %v); the first two must count from the due time, the connect from its dial", s.first, s.lag, s.connect, s.err)
			}
		})
	}
}

func emitted(t *testing.T, metrics map[string]float64, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			t.Errorf("metric %s was not emitted", d.name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", d.name, v)
		}
		if d.unit == "" {
			t.Errorf("metric %s has no unit", d.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	spec.EndToEnd = []specMetric{
		{Name: "same_ms", Better: "lower", Bound: 0.1},
		{Name: "slower_ms", Better: "lower", Bound: 0.1},
		{Name: "fewer_per_s", Better: "higher", Bound: 0.1},
		{Name: "noisy_ms", Better: "lower", Bound: 0.1},
	}
	steady := func(x float64) []float64 { return []float64{x, x * 1.01, x * 0.99, x, x * 1.005} }
	a := map[string]map[string][]float64{"w": {
		"same_ms": steady(10), "slower_ms": steady(10), "fewer_per_s": steady(10), "noisy_ms": {5, 10, 15, 20, 10},
	}}
	b := map[string]map[string][]float64{"w": {
		"same_ms": steady(10.5), "slower_ms": steady(12), "fewer_per_s": steady(8), "noisy_ms": steady(10),
	}}
	var out bytes.Buffer
	if status := compareRuns(spec, a, b, &out); status != 1 {
		t.Errorf("status %d, want 1 when a row is not ok", status)
	}
	for metric, verdict := range map[string]string{"same_ms": "ok", "slower_ms": "worse", "fewer_per_s": "worse", "noisy_ms": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) {
				found = strings.Contains(line, " "+verdict+" ")
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in\n%s", metric, verdict, out.String())
		}
	}
	if status := compareRuns(spec, a, a, io.Discard); status != 1 {
		t.Errorf("a vs a: status %d, want 1 for the unresolved noisy metric", status)
	}
}
