package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Histograms in this package record nanoseconds internally; exposition
// follows the Prometheus convention of base-unit seconds, so every
// histogram metric name should end in _seconds and buckets, sums and
// statusz quantiles are divided by 1e9 on the way out.
const nsPerSecond = 1e9

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelPairs renders `{k1="v1",k2="v2"}` in key order, or "" for
// unlabeled samples, with extra appended last inside the braces (used
// for histogram le bounds).
func labelPairs(keys, values []string, extra string) string {
	var parts []string
	for i, key := range keys {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, key, escapeLabel(values[i])))
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Histogram buckets are cumulative with
// second-valued le bounds; empty buckets are elided (the layout has
// 960 of them) but +Inf, _sum and _count always appear.
func WritePrometheus(w io.Writer, r *Registry) error {
	for _, f := range r.Gather() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.Name, escapeHelp(f.Help), f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if s.Hist == nil {
				if _, err := fmt.Fprintf(w, "%s%s %s\n",
					f.Name, labelPairs(f.Labels, s.Labels, ""), formatFloat(s.Value)); err != nil {
					return err
				}
				continue
			}
			var cum uint64
			for i, c := range s.Hist.Buckets {
				if c == 0 {
					continue
				}
				cum += c
				le := fmt.Sprintf(`le="%s"`, formatFloat(float64(bucketUpper(i))/nsPerSecond))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.Name, labelPairs(f.Labels, s.Labels, le), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				f.Name, labelPairs(f.Labels, s.Labels, `le="+Inf"`), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
				f.Name, labelPairs(f.Labels, s.Labels, ""), formatFloat(float64(s.Hist.Sum)/nsPerSecond)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
				f.Name, labelPairs(f.Labels, s.Labels, ""), s.Hist.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// JSONSample is one series in the /statusz snapshot. Histogram series
// report count plus second-valued summary statistics instead of raw
// buckets.
type JSONSample struct {
	Labels []string `json:"labels,omitempty"` // values, parallel to the family's keys
	Value  *float64 `json:"value,omitempty"`

	Count *uint64  `json:"count,omitempty"`
	Sum   *float64 `json:"sum_seconds,omitempty"`
	Mean  *float64 `json:"mean_seconds,omitempty"`
	P50   *float64 `json:"p50_seconds,omitempty"`
	P99   *float64 `json:"p99_seconds,omitempty"`
	P999  *float64 `json:"p999_seconds,omitempty"`
}

// JSONFamily is one metric family in the /statusz snapshot.
type JSONFamily struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Help    string       `json:"help,omitempty"`
	Labels  []string     `json:"labels,omitempty"`
	Samples []JSONSample `json:"samples"`
}

// WriteJSON renders the registry as an indented JSON array of
// families — the /statusz document.
func WriteJSON(w io.Writer, r *Registry) error {
	fams := r.Gather()
	out := make([]JSONFamily, 0, len(fams))
	for _, f := range fams {
		jf := JSONFamily{Name: f.Name, Kind: f.Kind, Help: f.Help, Labels: f.Labels}
		for _, s := range f.Samples {
			if s.Hist == nil {
				v := s.Value
				jf.Samples = append(jf.Samples, JSONSample{Labels: s.Labels, Value: &v})
				continue
			}
			count := s.Hist.Count
			sum := float64(s.Hist.Sum) / nsPerSecond
			mean := s.Hist.Mean().Seconds()
			p50 := s.Hist.P50().Seconds()
			p99 := s.Hist.P99().Seconds()
			p999 := s.Hist.P999().Seconds()
			jf.Samples = append(jf.Samples, JSONSample{
				Labels: s.Labels, Count: &count, Sum: &sum, Mean: &mean,
				P50: &p50, P99: &p99, P999: &p999,
			})
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
