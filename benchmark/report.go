package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"privinf/internal/ringq"
)

// header makes numbers from different machines and commits interpretable.
type header struct {
	Workload   string  `json:"workload"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// NTTFwdUs is one forward NTT at N=4096: the machine-speed reference.
	NTTFwdUs float64 `json:"ringq.ntt_fwd_us"`
	// SpeedFactor is what the window's median timings were multiplied by to
	// report them at reference speed (speed.go); raw = reported ÷ factor.
	SpeedFactor float64 `json:"speed_factor"`
	// WallS is the whole run, set-up included.
	WallS float64 `json:"wall_s"`
}

// phases is attempted / failed per protocol phase of the measured window.
type phases struct {
	Connect    phaseJSON `json:"connect"`
	Precompute phaseJSON `json:"precompute"`
	Infer      phaseJSON `json:"infer"`
}

type phaseJSON struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func (p phaseCount) json() phaseJSON {
	return phaseJSON{Attempted: p.attempted, Succeeded: p.attempted - p.failed, Failed: p.failed}
}

// record is one run: what -out appends and -compare reads.
type record struct {
	Header header `json:"header"`
	Phases phases `json:"phases"`
	Result result `json:"result"`
}

func (r *record) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nttForwardUs times one forward NTT at the protocol's ring degree.
func nttForwardUs() float64 {
	const n, reps = 4096, 200
	ntt := ringq.NewNTT(n)
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i)
	}
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		ntt.Forward(a)
		times[i] = us(time.Since(t0))
	}
	return median(times)
}

// prepared is a workload set up and ready to be measured.
type prepared struct {
	e      *env
	g      *generator
	c      int
	sc     scale
	setupS float64 // median over the set-up repeats
}

// setUp builds the workload's environment and runs its warm-up sessions,
// returning how long both took.
func setUp(w workload, seed int64, c int, sc scale) (*env, *generator, time.Duration, error) {
	start := time.Now()
	e, err := newEnv(w, c)
	if err != nil {
		return nil, nil, 0, err
	}
	g := newGenerator(w, e.models, seed)
	warm := &results{}
	for i := 0; i < sc.warmups; i++ {
		runSession(e, g.session(), time.Now(), warm, nil)
	}
	if warm.firstError != nil {
		e.Close()
		return nil, nil, 0, fmt.Errorf("warm-up: %w", warm.firstError)
	}
	return e, g, time.Since(start), nil
}

// prepare sets the workload up sc.setupRepeats times, tearing every
// environment but the last down again, so that setup_s is a median. Every
// set-up sees the same warm-up sessions; the measured window continues the
// last one's generator.
func prepare(w workload, seed int64, c int, sc scale) (*prepared, error) {
	p := &prepared{c: c, sc: sc}
	var setups []float64
	for i := 0; i < sc.setupRepeats; i++ {
		if p.e != nil {
			p.e.Close()
		}
		// Each repeat is scaled by the machine speed around it.
		var speed speedSamples
		speed.sample()
		var took time.Duration
		var err error
		if p.e, p.g, took, err = setUp(w, seed, c, sc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		speed.sample()
		_, factor := speed.factors()
		setups = append(setups, took.Seconds()*factor)
	}
	p.setupS = median(setups)
	return p, nil
}

// endToEnd measures the workload untraced for the window.
func (p *prepared) endToEnd(window time.Duration) (*results, map[string]float64) {
	r := runWindow(p.e, p.g, window, p.c, nil)
	return r, endToEndMetrics(p.e.w, r, p.setupS)
}

// layers measures the workload for the window, the first half untraced and
// the second half traced (the difference is the tracing overhead), then runs
// the delphi harness, the kernel ladder and the probes. The returned results
// are the traced half's, with the untraced half's operation counts added:
// its failures are failures too.
func (p *prepared) layers(window time.Duration, nttFwdUs float64, stdout io.Writer) (*results, map[string]float64, *tracer, error) {
	plain := runWindow(p.e, p.g, window/2, p.c, nil)
	tr := newTracer()
	r := runWindow(p.e, p.g, window/2, p.c, tr)
	metrics, err := layerMetrics(p.e, p.g, plain, r, tr, p.sc, nttFwdUs, stdout)
	if err != nil {
		return nil, nil, nil, err
	}
	r.connects.merge(plain.connects)
	r.precomps.merge(plain.precomps)
	r.infers.merge(plain.infers)
	if r.firstError == nil {
		r.firstError = plain.firstError
	}
	return r, metrics, tr, nil
}

// runWorkload sets the workload up, measures it for the window and reports:
// an untraced run the end-to-end metrics, a traced run the per-layer ones.
func runWorkload(w workload, seed int64, window time.Duration, traced bool, c int, stdout io.Writer) (*record, error) {
	runStart := time.Now()
	rec := &record{Header: header{
		Workload:   w.name,
		Commit:     commit(),
		Seed:       seed,
		Seconds:    window.Seconds(),
		Trace:      traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		NTTFwdUs:   nttForwardUs(),
	}}
	p, err := prepare(w, seed, c, fullScale)
	if err != nil {
		return nil, err
	}
	defer p.e.Close()

	var r *results
	var metrics map[string]float64
	defs := endToEnd
	if !traced {
		r, metrics = p.endToEnd(window)
	} else {
		var tr *tracer
		if r, metrics, tr, err = p.layers(window, rec.Header.NTTFwdUs, stdout); err != nil {
			return nil, err
		}
		path, err := tr.write("benchmark/out", w.name)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace: %d spans in %s\n", len(tr.spans), path)
		defs = layerDefs()
	}

	rec.Header.WallS = time.Since(runStart).Seconds()
	rec.Header.SpeedFactor, _ = r.speed.factors()
	rec.Phases = phases{r.connects.json(), r.precomps.json(), r.infers.json()}
	rec.Result = result{
		Correct:   r.failed() == 0 && r.attempted() > 0,
		Attempted: r.attempted(),
		Failed:    r.failed(),
		Metrics:   map[string]value{},
	}
	hdr, err := json.Marshal(rec.Header)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "run: %s\n", hdr)
	for _, ph := range []struct {
		name string
		c    phaseJSON
	}{{"connect", rec.Phases.Connect}, {"precompute", rec.Phases.Precompute}, {"infer", rec.Phases.Infer}} {
		fmt.Fprintf(stdout, "phase %-10s attempted %5d  succeeded %5d  failed %5d\n", ph.name, ph.c.Attempted, ph.c.Succeeded, ph.c.Failed)
	}
	if r.firstError != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", r.firstError)
	}
	r.printTimings(stdout)
	typical, mean := r.speed.factors()
	fmt.Fprintf(stdout, "speed factor: typical %.4f, mean %.4f from %d samples (reported time = measured x factor)\n", typical, mean, len(r.speed.ds))
	fmt.Fprintf(stdout, "resident set: %d samples, p50 %.1f MiB, p95 %.1f MiB, max %.1f MiB; VmHWM of the whole run %.1f MiB\n", len(r.rss), median(r.rss), quantile(r.rss, 0.95), quantile(r.rss, 1), peakRSSMiB())
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rec.Result.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", d.name, v, d.unit)
	}
	return rec, nil
}

// endToEndMetrics folds a window into what a user of the system sees.
// Timings are medians, and are reported at reference speed (see speed.go).
func endToEndMetrics(w workload, r *results, setupS float64) map[string]float64 {
	typical, mean := r.speed.factors()
	// A closed loop completes work in proportion to machine speed; an open
	// loop completes what the schedule offers, at any speed. And an open
	// loop's speed samples, taken between other workers' sessions, are too
	// few and too easily disturbed for a mean.
	work := 1 / mean
	if w.open {
		work, mean = 1, typical
	}
	// The memory high-water mark is an extreme, and as noisy as one: the
	// 95th percentile of the sampled resident set is nearly as high and
	// repeats. VmHWM stands in where the window was too short to sample.
	peakRSS := quantile(r.rss, 0.95)
	if len(r.rss) == 0 {
		peakRSS = peakRSSMiB()
	}
	connects, firsts := r.sessionLatencies()
	var wire, online uint64
	var sloOK, done int
	for _, s := range r.sessions {
		wire += s.wireBytes
		online += s.onlineBytes
		if s.done {
			done++
			if ms(s.first)*typical <= ms(w.firstLimit) && ms(s.worstLater)*typical <= ms(w.inferLimit) {
				sloOK++
			}
		}
	}
	n := float64(r.verified())
	return map[string]float64{
		"setup_s":                setupS,
		"connect_p50_ms":         median(durationsMs(connects)) * typical,
		"first_result_p50_ms":    median(durationsMs(firsts)) * typical,
		"infer_p50_ms":           median(durationsMs(r.inferLatencies())) * typical,
		"infer_per_s":            ratio(n*work, r.wall.Seconds()),
		"slo_ok_ratio":           ratio(float64(sloOK), float64(len(r.sessions))),
		"wire_bytes_per_infer":   ratio(float64(wire), n),
		"online_bytes_per_infer": ratio(float64(online), n),
		"cpu_ms_per_infer":       ratio(ms(r.cpu)*mean, n),
		"peak_rss_mib":           peakRSS,
		"sessions_ok":            float64(done) * work,
	}
}

// printTimings prints each latency family as its sample count, median, the
// highest of p90/p95/p99 that still has ten samples beyond it, and maximum.
func (r *results) printTimings(stdout io.Writer) {
	connects, firsts := r.sessionLatencies()
	for _, fam := range []struct {
		name string
		ds   []time.Duration
	}{{"connect", connects}, {"first_result", firsts}, {"infer", r.inferLatencies()}} {
		vs := durationsMs(fam.ds)
		if len(vs) == 0 {
			continue
		}
		tail := ""
		for _, q := range []float64{0.99, 0.95, 0.90} {
			if float64(len(vs))*(1-q) >= 10 {
				tail = fmt.Sprintf("  p%.0f %9.3f ms", 100*q, quantile(vs, q))
				break
			}
		}
		fmt.Fprintf(stdout, "timing %-12s n %5d  p50 %9.3f ms%s  max %9.3f ms\n", fam.name, len(vs), median(vs), tail, quantile(vs, 1))
	}
}

// commit is the revision under test when run.sh could ask git for it.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
