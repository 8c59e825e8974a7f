package obs

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. Prefer Add with balanced
// deltas over Set when several call sites share one gauge: the deltas
// compose, a Set from one site clobbers the others.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add applies a signed delta.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// new returns a zero metric of kind k.
func (k metricKind) new() any {
	switch k {
	case kindCounter:
		return &Counter{}
	case kindGauge:
		return &Gauge{}
	default:
		return NewHistogram()
	}
}

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// labelSep joins a series' label values into its map key. NUL sorts
// below every label byte, so sorting keys sorts value tuples.
const labelSep = "\x00"

// series is one child of a family: its label values and its
// *Counter, *Gauge or *Histogram.
type series struct {
	values []string
	m      any
}

// family is one registered metric name: its metadata plus the
// label-value-keyed children. Unlabeled metrics are a family with no
// label keys and a single child under the empty key.
type family struct {
	name   string
	help   string
	labels []string // label keys, nil for unlabeled
	kind   metricKind

	mu       sync.RWMutex
	children map[string]*series
}

func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q takes labels %q, got values %q", f.name, f.labels, values))
	}
	var key string
	if len(values) == 1 {
		key = values[0] // the common case skips the join's allocation
	} else {
		key = strings.Join(values, labelSep)
	}
	f.mu.RLock()
	s, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return s.m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.children[key]; ok {
		return s.m
	}
	s = &series{values: slices.Clone(values), m: f.kind.new()}
	f.children[key] = s
	return s.m
}

// sorted returns the family's children in label-value order.
func (f *family) sorted() []*series {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*series, 0, len(f.children))
	for _, k := range slices.Sorted(maps.Keys(f.children)) {
		out = append(out, f.children[k])
	}
	return out
}

// Registry holds named metric families. Each component that counts
// something (an engine, a router) builds its instruments on a Registry
// of its own, so its Stats are reads of exactly its own events; Include
// assembles component registries into a wider view, and the
// process-wide Default view is what /metrics serves.
//
// Registration is idempotent: asking for an existing name with the same
// kind and label keys returns the existing family; a kind or label
// mismatch panics, since that is a metric-naming bug the obsreg
// analyzer exists to prevent.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	included []*Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process view: the transport and client
// families live on it directly, every serving component's registry is
// included in it, and serve.DebugServer exposes it at /metrics.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

func (r *Registry) register(name, help string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.registerLocked(name, help, kind, labels)
}

// registerLocked is register for a caller that holds r.mu for writing.
func (r *Registry) registerLocked(name, help string, kind metricKind, labels []string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, labels: labels, kind: kind, children: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind || !slices.Equal(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric %q registered as %s(labels=%q) and as %s(labels=%q)",
			name, f.kind, f.labels, kind, labels))
	}
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil).child(nil).(*Counter)
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil).child(nil).(*Gauge)
}

// Histogram registers (or returns) an unlabeled histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, kindHistogram, nil).child(nil).(*Histogram)
}

// Vec is a metric family keyed by one or more labels; T is Counter,
// Gauge or Histogram.
type Vec[T any] struct{ f *family }

// The three vec kinds a Registry hands out.
type (
	CounterVec   = Vec[Counter]
	GaugeVec     = Vec[Gauge]
	HistogramVec = Vec[Histogram]
)

// CounterVec registers (or returns) a counter family with the given
// label keys.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels)}
}

// GaugeVec registers (or returns) a gauge family with the given label
// keys.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels)}
}

// HistogramVec registers (or returns) a histogram family with the
// given label keys.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labels)}
}

// With returns the series for one value per label key, in key order,
// creating it on first use. Hot paths resolve their series once and
// keep the pointer.
func (v *Vec[T]) With(values ...string) *T {
	return v.f.child(values).(*T)
}

// Delete drops the series for one value per label key, if it exists, so a
// label whose subject is gone (a removed replica) stops being exported.
// A pointer With returned earlier keeps working but is no longer read.
func (v *Vec[T]) Delete(values ...string) {
	key := strings.Join(values, labelSep)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	delete(v.f.children, key)
}

// Each calls fn for every series seen so far, in label-value order —
// how an owner's Stats sums or partitions a family without creating
// series as a side effect.
func (v *Vec[T]) Each(fn func(values []string, m *T)) {
	for _, s := range v.f.sorted() {
		fn(s.values, s.m.(*T))
	}
}

// Include makes child's series part of r's view: Gather on r reports
// each family as the merge of r's own series and every included
// registry's (counters and gauges summed, histograms merged per label
// tuple), so a component mounted after a scraper started shows up with
// no re-wiring. The returned function retires child when its owner
// closes: child's counters and histograms are folded into r's own
// series and child leaves the view in one step under r's lock, so r's
// totals never run backwards and r holds nothing of child afterwards.
// A retired owner has no level, so its gauges are dropped. Retire after
// the owner's last increment; retiring again is a no-op.
func (r *Registry) Include(child *Registry) (retire func()) {
	r.mu.Lock()
	r.included = append(r.included, child)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		i := slices.Index(r.included, child)
		if i < 0 {
			return
		}
		r.included = slices.Delete(r.included, i, i+1)
		child.walk(func(f *family) {
			if f.kind != kindGauge {
				r.foldLocked(f)
			}
		})
	}
}

// walk calls fn for every family visible from r: its own, then those
// of the registries it includes. r.mu is read-held throughout, so an
// included registry is seen either live or already folded in, never
// both and never neither.
func (r *Registry) walk(fn func(*family)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		fn(f)
	}
	for _, c := range r.included {
		c.walk(fn)
	}
}

// foldLocked adds f's series into r's family of the same name, created
// when absent; the same name under another kind or label keys panics,
// as a re-registration would. Caller holds r.mu for writing.
func (r *Registry) foldLocked(f *family) {
	own := r.registerLocked(f.name, f.help, f.kind, f.labels)
	for _, s := range f.sorted() {
		dst := own.child(s.values)
		switch m := s.m.(type) {
		case *Counter:
			dst.(*Counter).Add(m.Value())
		case *Gauge:
			dst.(*Gauge).Add(m.Value())
		case *Histogram:
			dst.(*Histogram).absorb(m)
		}
	}
}

// Sample is one exported series value inside a family.
type Sample struct {
	// Labels are the label values, parallel to Family.Labels.
	Labels []string
	// Value holds the counter count or gauge level; unset for
	// histograms.
	Value float64
	// Hist holds the bucket snapshot for histogram samples.
	Hist *HistogramSnapshot
}

// Family is an exported snapshot of one metric family.
type Family struct {
	Name    string
	Help    string
	Kind    string
	Labels  []string // label keys, nil for unlabeled
	Samples []Sample
}

// Gather snapshots every family visible from r (see Include), sorted
// by name and samples by label values so exports are deterministic:
// the view is summed into a scratch registry, which is then read out.
func (r *Registry) Gather() []Family {
	sum := NewRegistry()
	r.walk(sum.foldLocked) // sum is not shared yet: no lock to hold
	out := make([]Family, 0, len(sum.families))
	for _, f := range sum.families {
		ef := Family{Name: f.name, Help: f.help, Kind: f.kind.String(), Labels: f.labels}
		for _, s := range f.sorted() {
			switch m := s.m.(type) {
			case *Counter:
				ef.Samples = append(ef.Samples, Sample{Labels: s.values, Value: float64(m.Value())})
			case *Gauge:
				ef.Samples = append(ef.Samples, Sample{Labels: s.values, Value: float64(m.Value())})
			case *Histogram:
				snap := m.Snapshot()
				ef.Samples = append(ef.Samples, Sample{Labels: s.values, Hist: &snap})
			}
		}
		out = append(out, ef)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
