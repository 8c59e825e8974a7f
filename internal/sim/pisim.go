package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"privinf/internal/cost"
	"privinf/internal/device"
	"privinf/internal/obs"
)

// Mode selects the offline scheduling strategy (§5.2).
type Mode int

const (
	// LPHE runs one pre-compute at a time, parallelizing its HE jobs
	// across server cores (layer-parallel HE).
	LPHE Mode = iota
	// RLP runs independent pre-computes concurrently, one core each
	// (request-level parallelism).
	RLP
)

func (m Mode) String() string {
	if m == RLP {
		return "RLP"
	}
	return "LPHE"
}

// Config is one workload simulation.
type Config struct {
	// OfflineSeconds is the duration of one background pre-compute.
	OfflineSeconds float64
	// OnDemandOfflineSeconds is the offline cost paid inline when the
	// client cannot buffer any pre-compute (Capacity == 0).
	OnDemandOfflineSeconds float64
	// OnlineSeconds is the online-phase duration.
	OnlineSeconds float64
	// Capacity is the pre-compute buffer size in units of inferences
	// (0 = the offline phase cannot be engaged).
	Capacity int
	// MaxConcurrent bounds simultaneous background pre-computes
	// (1 for LPHE; min(storage slots, garbler cores) for RLP).
	MaxConcurrent int
	// ArrivalsPerMinute is the Poisson arrival rate.
	ArrivalsPerMinute float64
	// HorizonSeconds is how long requests keep arriving (24 h default).
	HorizonSeconds float64
	Seed           int64
}

// DefaultHorizon is the paper's 24-hour simulation window.
const DefaultHorizon = 24 * 3600.0

// Validate rejects configurations the simulator cannot run.
func (c Config) Validate() error {
	if c.OnlineSeconds <= 0 {
		return fmt.Errorf("sim: online duration must be positive")
	}
	if c.Capacity > 0 && c.OfflineSeconds <= 0 {
		return fmt.Errorf("sim: offline duration must be positive when buffering")
	}
	if c.Capacity == 0 && c.OnDemandOfflineSeconds <= 0 {
		return fmt.Errorf("sim: on-demand offline duration must be positive when capacity is 0")
	}
	if c.ArrivalsPerMinute <= 0 {
		return fmt.Errorf("sim: arrival rate must be positive")
	}
	return nil
}

// Stats aggregates one run (or the mean over several runs).
type Stats struct {
	Requests      int
	MeanLatency   float64 // arrival -> completion, seconds
	MeanQueueWait float64 // waiting behind earlier inferences
	MeanOffline   float64 // waiting for / running the offline phase
	MeanOnline    float64 // online phase (constant per config)
	// P50Latency and P99Latency are arrival→completion quantiles in
	// seconds, read off an obs histogram (≤6.25% relative error). The
	// RunMany aggregates merge the runs' histograms before extracting,
	// so they are true distribution quantiles — never averages of
	// per-run quantiles, which would be meaningless.
	P50Latency float64
	P99Latency float64
}

// latencySnapshot buckets latencies (seconds) into an obs histogram
// snapshot — the mergeable form quantile aggregation needs.
func latencySnapshot(lat []float64) obs.HistogramSnapshot {
	h := obs.NewHistogram()
	for _, l := range lat {
		h.Record(time.Duration(l * float64(time.Second)))
	}
	return h.Snapshot()
}

type request struct {
	arrived  float64
	eligible float64 // reached the head of the queue with server free
	started  float64 // online phase start
}

type piState struct {
	eng *Engine
	cfg Config

	ready    int // buffered pre-computes
	inflight int // background pre-computes in progress
	queue    []*request
	serving  bool

	samples
}

// samples collects the per-request timings of one run; both simulators
// record into one and close the run through its stats.
type samples struct {
	latencies []float64
	qwaits    []float64
	offwaits  []float64
}

// record files a request that completes now.
func (s *samples) record(arrived, eligible, started, now float64) {
	s.latencies = append(s.latencies, now-arrived)
	s.qwaits = append(s.qwaits, eligible-arrived)
	s.offwaits = append(s.offwaits, started-eligible)
}

// stats closes one run: the means, plus the latency histogram snapshot
// runMany merges across seeds.
func (s *samples) stats(onlineSeconds float64) (Stats, obs.HistogramSnapshot) {
	out := Stats{Requests: len(s.latencies), MeanOnline: onlineSeconds}
	if out.Requests == 0 {
		return out, obs.HistogramSnapshot{}
	}
	out.MeanLatency = mean(s.latencies)
	out.MeanQueueWait = mean(s.qwaits)
	out.MeanOffline = mean(s.offwaits)
	return out, latencySnapshot(s.latencies)
}

// runMany averages runs of one simulation under seeds seed, seed+stride,
// seed+2·stride, …; the quantiles are read off the merged histogram.
func runMany(runs int, seed, stride int64, one func(seed int64) (Stats, obs.HistogramSnapshot, error)) (Stats, error) {
	if runs < 1 {
		runs = 1
	}
	var agg Stats
	var merged obs.HistogramSnapshot
	for i := 0; i < runs; i++ {
		st, snap, err := one(seed + int64(i)*stride)
		if err != nil {
			return Stats{}, err
		}
		agg.Requests += st.Requests
		agg.MeanLatency += st.MeanLatency
		agg.MeanQueueWait += st.MeanQueueWait
		agg.MeanOffline += st.MeanOffline
		agg.MeanOnline += st.MeanOnline
		merged.Merge(snap)
	}
	f := float64(runs)
	agg.MeanLatency /= f
	agg.MeanQueueWait /= f
	agg.MeanOffline /= f
	agg.MeanOnline /= f
	agg.P50Latency = merged.P50().Seconds()
	agg.P99Latency = merged.P99().Seconds()
	return agg, nil
}

// Run executes one simulation and returns its statistics.
func Run(cfg Config) (Stats, error) { return RunMany(cfg, 1) }

// run executes one simulation, returning the stats alongside the latency
// histogram snapshot RunMany merges across seeds.
func run(cfg Config) (Stats, obs.HistogramSnapshot, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, obs.HistogramSnapshot{}, err
	}
	if cfg.HorizonSeconds <= 0 {
		cfg.HorizonSeconds = DefaultHorizon
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 1
	}
	st := &piState{eng: &Engine{}, cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pre-schedule the Poisson arrival process across the horizon.
	meanGap := 60.0 / cfg.ArrivalsPerMinute
	for t := rng.ExpFloat64() * meanGap; t < cfg.HorizonSeconds; t += rng.ExpFloat64() * meanGap {
		at := t
		st.eng.Schedule(at, func() { st.arrive() })
	}

	st.refill()
	st.eng.Run()
	out, snap := st.stats(cfg.OnlineSeconds)
	return out, snap, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// refill starts background pre-computes while buffer space and pipeline
// slots remain. The buffer slot is reserved at start (the client must hold
// the GCs as they stream in).
func (s *piState) refill() {
	if s.cfg.Capacity == 0 {
		return
	}
	for s.inflight < s.cfg.MaxConcurrent && s.ready+s.inflight < s.cfg.Capacity {
		s.inflight++
		s.eng.Schedule(s.cfg.OfflineSeconds, func() {
			s.inflight--
			s.ready++
			s.refill()
			s.serve()
		})
	}
}

func (s *piState) arrive() {
	r := &request{arrived: s.eng.Now(), eligible: -1}
	s.queue = append(s.queue, r)
	s.serve()
}

// serve advances the FIFO head if the server is free.
func (s *piState) serve() {
	if s.serving || len(s.queue) == 0 {
		return
	}
	r := s.queue[0]
	if r.eligible < 0 {
		r.eligible = s.eng.Now()
	}

	if s.cfg.Capacity == 0 {
		// No buffering: the full offline phase runs inline.
		s.queue = s.queue[1:]
		s.serving = true
		r.started = s.eng.Now() + s.cfg.OnDemandOfflineSeconds
		s.eng.Schedule(s.cfg.OnDemandOfflineSeconds+s.cfg.OnlineSeconds, func() { s.complete(r) })
		return
	}
	if s.ready == 0 {
		// Wait for an in-flight pre-compute; its completion re-enters
		// serve(). refill guarantees at least one is running.
		return
	}
	s.ready--
	s.queue = s.queue[1:]
	s.serving = true
	r.started = s.eng.Now()
	s.refill() // a buffer slot was freed
	s.eng.Schedule(s.cfg.OnlineSeconds, func() { s.complete(r) })
}

func (s *piState) complete(r *request) {
	s.record(r.arrived, r.eligible, r.started, s.eng.Now())
	s.serving = false
	s.serve()
}

// RunMany averages runs with distinct seeds (the paper uses 50).
func RunMany(cfg Config, runs int) (Stats, error) {
	return runMany(runs, cfg.Seed, 7919, func(seed int64) (Stats, obs.HistogramSnapshot, error) {
		c := cfg
		c.Seed = seed
		return run(c)
	})
}

// FromScenario derives a simulation Config from a cost scenario, a client
// storage budget, and an offline scheduling mode.
func FromScenario(s cost.Scenario, clientStorageBytes int64, mode Mode, garbler device.Device) Config {
	capacity := s.BufferCapacity(clientStorageBytes, 0)
	var off, demand float64
	maxConc := 1
	lphe := s
	lphe.LPHE = true
	switch mode {
	case LPHE:
		b := lphe.Compute()
		off, demand = b.Offline(), b.Offline()
	case RLP:
		b := s.RLPBreakdown()
		off, demand = b.Offline(), b.Offline()
		maxConc = capacity
		if garbler.Cores < maxConc {
			maxConc = garbler.Cores
		}
		if maxConc < 1 {
			maxConc = 1
		}
	}
	on := s.Compute().Online()
	return Config{
		OfflineSeconds:         off,
		OnDemandOfflineSeconds: demand,
		OnlineSeconds:          on,
		Capacity:               capacity,
		MaxConcurrent:          maxConc,
		HorizonSeconds:         DefaultHorizon,
	}
}

// SustainableRatePerMinute returns the maximum long-run arrival rate the
// configuration can absorb: the slower of pre-compute production and online
// service.
func (c Config) SustainableRatePerMinute() float64 {
	onlineRate := 60.0 / c.OnlineSeconds
	if c.Capacity == 0 {
		return 60.0 / (c.OnDemandOfflineSeconds + c.OnlineSeconds)
	}
	conc := c.MaxConcurrent
	if conc > c.Capacity {
		conc = c.Capacity
	}
	offRate := 60.0 * float64(conc) / c.OfflineSeconds
	return math.Min(onlineRate, offRate)
}
