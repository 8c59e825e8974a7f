package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns groups a JSON-lines file of run records into
// workload → metric → one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		byMetric := runs[rec.Header.Workload]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			runs[rec.Header.Workload] = byMetric
		}
		for name, v := range rec.Result.Metrics {
			byMetric[name] = append(byMetric[name], v.Value)
		}
	}
	return runs, sc.Err()
}

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise a difference has to exceed.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

// compareFiles prints, for every workload and end-to-end metric, how the
// runs in b compare with the runs in a (the parent): "ok" when b's median is
// no worse than a's by more than the metric's bound, "worse" when it is, and
// "unresolved" when either side's own spread is wider than the bound, so the
// runs cannot tell. It returns 1 if any row is not "ok".
func compareFiles(specPath, aPath, bPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return fail(err)
	}
	a, err := readRuns(aPath)
	if err != nil {
		return fail(err)
	}
	b, err := readRuns(bPath)
	if err != nil {
		return fail(err)
	}
	return compareRuns(spec, a, b, stdout)
}

func compareRuns(spec *benchSpec, a, b map[string]map[string][]float64, stdout io.Writer) int {
	status := 0
	fmt.Fprintf(stdout, "%-12s %-24s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "a median", "b median", "worse%", "spread%", "bound%", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-12s %-24s %14s %14s %8s %8s %6.1f  missing (a has %d runs, b has %d)\n", w.Name, m.Name, "-", "-", "-", "-", 100*m.Bound, len(va), len(vb))
				status = 1
				continue
			}
			ma, mb := median(va), median(vb)
			// worse is how much worse b is than a, as a share of a.
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			noise := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case noise > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			if verdict != "ok" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-12s %-24s %14.4f %14.4f %+8.2f %8.2f %6.1f  %s (n=%d,%d)\n", w.Name, m.Name, ma, mb, 100*worse, 100*noise, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	return status
}
