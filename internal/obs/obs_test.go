package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every value must land in a bucket whose range contains it, and the
// reported upper bound must overshoot by at most one sub-bucket width
// (6.25% above the exact region).
func TestBucketRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 2, 15, 16, 17, 31, 32, 33, 63, 64, 1000, 1e6, 1e9, 1e12, 1<<62 - 1}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Int63())
	}
	for _, v := range vals {
		i := bucketOf(v)
		up := bucketUpper(i)
		if up < v {
			t.Fatalf("value %d above its bucket upper %d (bucket %d)", v, up, i)
		}
		if i > 0 {
			below := bucketUpper(i - 1)
			if below >= v {
				t.Fatalf("value %d fits bucket %d (upper %d) but mapped to %d", v, i-1, below, i)
			}
		}
		if v >= subBuckets && float64(up) > float64(v)*(1+1.0/subBuckets) {
			t.Fatalf("value %d: upper %d exceeds %.2f%% relative error", v, up, 100.0/subBuckets)
		}
	}
	// Bucket bounds must be strictly monotone over the whole layout.
	for i := 1; i < numBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket bounds not monotone at %d: %d <= %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
}

// Quantile-accuracy property test against an exact sorted reference:
// the histogram answer must bracket the true order statistic from
// above, within the layout's 6.25% relative-error bound.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform":     func() int64 { return rng.Int63n(1_000_000_000) },
		"exponential": func() int64 { return int64(rng.ExpFloat64() * 5e6) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 400_000_000 + rng.Int63n(50_000_000) // slow tail
			}
			return 1_000_000 + rng.Int63n(500_000)
		},
		"tiny": func() int64 { return rng.Int63n(64) },
	}
	for name, gen := range dists {
		h := NewHistogram()
		vals := make([]int64, 20000)
		for i := range vals {
			vals[i] = gen()
			h.RecordValue(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0} {
			// Same order statistic the histogram targets: the
			// ceil(q*n)-th smallest value.
			rank := int(math.Ceil(q * float64(len(vals))))
			if rank < 1 {
				rank = 1
			}
			exact := vals[rank-1]
			got := int64(s.Quantile(q))
			if got < exact {
				t.Fatalf("%s q=%v: histogram %d below exact %d", name, q, got, exact)
			}
			bound := float64(exact)*(1+1.0/subBuckets) + 1
			if float64(got) > bound {
				t.Fatalf("%s q=%v: histogram %d exceeds error bound %.0f (exact %d)", name, q, got, bound, exact)
			}
		}
	}
}

func TestSnapshotMergeAndSub(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 1000; i++ {
		a.RecordValue(int64(i) * 1000)
		b.RecordValue(int64(i) * 2000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	var m HistogramSnapshot
	m.Merge(sa)
	m.Merge(sb)
	if m.Total() != 2000 || m.Count != 2000 {
		t.Fatalf("merge total = %d/%d, want 2000", m.Total(), m.Count)
	}
	if m.Sum != sa.Sum+sb.Sum {
		t.Fatalf("merge sum = %d, want %d", m.Sum, sa.Sum+sb.Sum)
	}

	// Windowed delta: record more into a, Sub recovers just the window.
	for i := 0; i < 500; i++ {
		a.RecordValue(5_000_000)
	}
	d := a.Snapshot().Sub(sa)
	if d.Count != 500 || d.Total() != 500 {
		t.Fatalf("delta count = %d/%d, want 500", d.Count, d.Total())
	}
	if got := d.Mean(); got != 5*time.Millisecond {
		t.Fatalf("delta mean = %v, want 5ms", got)
	}
}

// Concurrent record / snapshot / merge hammer — meant for -race. After
// writers quiesce the totals must be exact.
func TestHistogramConcurrentHammer(t *testing.T) {
	h := NewHistogram()
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers snapshot and merge continuously while writers record.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc HistogramSnapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				acc.Merge(s)
				_ = s.Quantile(0.99)
				_ = s.Sub(acc)
			}
		}()
	}
	var ww sync.WaitGroup
	for i := 0; i < writers; i++ {
		ww.Add(1)
		go func(seed int64) {
			defer ww.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < perWriter; j++ {
				h.RecordValue(rng.Int63n(1_000_000_000))
			}
		}(int64(i))
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*perWriter || s.Total() != writers*perWriter {
		t.Fatalf("after quiesce count = %d, bucket total = %d, want %d", s.Count, s.Total(), writers*perWriter)
	}
}

func TestRegistryIdempotentAndMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help")
	c2 := r.Counter("x_total", "help")
	if c1 != c2 {
		t.Fatal("re-registering the same counter must return the same instance")
	}
	v1 := r.HistogramVec("lat_seconds", "help", "model")
	if v1.With("cnn") != r.HistogramVec("lat_seconds", "help", "model").With("cnn") {
		t.Fatal("vec children must be stable across re-registration")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

func TestSpanDisabledRecordsNothing(t *testing.T) {
	defer SetEnabled(true)
	h := NewHistogram()
	SetEnabled(false)
	sp := StartSpan(h)
	time.Sleep(time.Millisecond)
	sp.End()
	if n := h.Snapshot().Count; n != 0 {
		t.Fatalf("disabled span recorded %d observations", n)
	}
	SetEnabled(true)
	sp = StartSpan(h)
	sp.End()
	if n := h.Snapshot().Count; n != 1 {
		t.Fatalf("enabled span recorded %d observations, want 1", n)
	}
}

func TestWritePrometheusShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("pi_test_total", "a counter").Add(3)
	r.GaugeVec("pi_test_depth", "a gauge", "model").With("cnn").Set(7)
	h := r.HistogramVec("pi_test_seconds", "a histogram", "model").With("cnn")
	h.Record(2 * time.Millisecond)
	h.Record(40 * time.Millisecond)

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pi_test_total counter",
		"pi_test_total 3",
		`pi_test_depth{model="cnn"} 7`,
		"# TYPE pi_test_seconds histogram",
		`pi_test_seconds_bucket{model="cnn",le="+Inf"} 2`,
		`pi_test_seconds_count{model="cnn"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := WriteJSON(&sb, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"p99_seconds"`) {
		t.Fatalf("statusz JSON missing histogram quantiles:\n%s", sb.String())
	}
}

// TestMultiLabelVec pins the vec families keyed by more than one label:
// series export in label-value tuple order with keys in registration order,
// values are escaped once, a histogram's le bound comes last, and a family
// re-registered under other keys (or asked for the wrong number of values)
// panics like a kind mismatch does.
func TestMultiLabelVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("pi_test_events_total", "events", "model", "event")
	v.With("b", "hit").Add(2)
	v.With("a", "miss").Inc()
	v.With("ab", "hit").Inc()
	v.With("a", `q"\`+"\n").Add(5)
	if v.With("b", "hit") != r.CounterVec("pi_test_events_total", "events", "model", "event").With("b", "hit") {
		t.Fatal("multi-label children must be stable across re-registration")
	}
	r.HistogramVec("pi_test_phase_seconds", "phases", "model", "phase").With("a", "he").Record(time.Millisecond)

	var order []string
	v.Each(func(values []string, c *Counter) { order = append(order, strings.Join(values, "/")) })
	if got, want := strings.Join(order, " "), "a/miss a/q\"\\\n ab/hit b/hit"; got != want {
		t.Fatalf("Each order %q, want %q", got, want)
	}

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := []string{
		`pi_test_events_total{model="a",event="miss"} 1`,
		`pi_test_events_total{model="a",event="q\"\\\n"} 5`,
		`pi_test_events_total{model="ab",event="hit"} 1`,
		`pi_test_events_total{model="b",event="hit"} 2`,
	}
	if !strings.Contains(out, strings.Join(lines, "\n")+"\n") {
		t.Fatalf("series missing or out of tuple order, want consecutive\n%s\ngot:\n%s", strings.Join(lines, "\n"), out)
	}
	for _, want := range []string{
		`pi_test_phase_seconds_bucket{model="a",phase="he",le="+Inf"} 1`,
		`pi_test_phase_seconds_count{model="a",phase="he"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	for name, bad := range map[string]func(){
		"other label keys":   func() { r.CounterVec("pi_test_events_total", "events", "event") },
		"other kind":         func() { r.GaugeVec("pi_test_events_total", "events", "model", "event") },
		"too few values":     func() { v.With("a") },
		"unlabeled as a vec": func() { r.Counter("pi_test_events_total", "events") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			bad()
		}()
	}
}

// TestIncludeMergesAndRetires: a view that includes two registries holding
// the same families reports their sum, picks up a registry included after
// the first Gather, and retiring one leaves every counter and histogram
// total where it was while the retired registry's gauge level goes away.
func TestIncludeMergesAndRetires(t *testing.T) {
	view := NewRegistry()
	view.Counter("pi_test_own_total", "the view's own").Add(1)
	build := func(n uint64) (*Registry, *Gauge) {
		r := NewRegistry()
		r.CounterVec("pi_test_events_total", "events", "model", "event").With("a", "hit").Add(n)
		r.HistogramVec("pi_test_seconds", "latency", "model").With("a").Record(time.Duration(n) * time.Millisecond)
		g := r.Gauge("pi_test_live", "live")
		g.Set(int64(n))
		return r, g
	}
	total := func() (events, live float64, lat HistogramSnapshot) {
		for _, f := range view.Gather() {
			for _, s := range f.Samples {
				switch f.Name {
				case "pi_test_events_total":
					events += s.Value
				case "pi_test_live":
					live += s.Value
				case "pi_test_seconds":
					lat.Merge(*s.Hist)
				}
			}
		}
		return
	}

	r1, _ := build(2)
	retire1 := view.Include(r1)
	if events, live, lat := total(); events != 2 || live != 2 || lat.Count != 1 {
		t.Fatalf("one registry: events %v live %v latency n=%d", events, live, lat.Count)
	}
	r2, _ := build(5)
	view.Include(r2)
	events, live, lat := total()
	if events != 7 || live != 7 || lat.Count != 2 || lat.Sum != int64(7*time.Millisecond) {
		t.Fatalf("two registries: events %v live %v latency n=%d sum=%d", events, live, lat.Count, lat.Sum)
	}
	if fams := view.Gather(); len(fams) != 4 || len(fams[0].Samples) != 1 {
		t.Fatalf("same-named families must merge into one with one series per label tuple: %+v", fams)
	}

	retire1()
	events, live, lat = total()
	if events != 7 || lat.Count != 2 || lat.Sum != int64(7*time.Millisecond) {
		t.Fatalf("after retire: events %v latency n=%d sum=%d, want the totals unchanged", events, lat.Count, lat.Sum)
	}
	if live != 5 {
		t.Fatalf("after retire: live %v, want only the remaining registry's level 5", live)
	}
	if len(view.included) != 1 {
		t.Fatalf("the view still holds %d registries, want only the live one", len(view.included))
	}
	r1.CounterVec("pi_test_events_total", "events", "model", "event").With("a", "hit").Inc()
	if events, _, _ := total(); events != 7 {
		t.Fatalf("a retired registry still reaches the view: events %v", events)
	}

	clash := NewRegistry()
	clash.Gauge("pi_test_events_total", "same name, other kind")
	view.Include(clash)
	defer func() {
		if recover() == nil {
			t.Fatal("one name under two kinds in a view must panic")
		}
	}()
	view.Gather()
}

// BenchmarkSpanDisabled pins the disabled-instrumentation cost: the
// perf-gate CI job asserts <= 10 ns/op and 0 allocs/op on this
// benchmark.
func BenchmarkSpanDisabled(b *testing.B) {
	defer SetEnabled(true)
	SetEnabled(false)
	h := NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(h)
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	SetEnabled(true)
	h := NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(h)
		sp.End()
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.RecordValue(int64(i))
	}
}
