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

// Config is one workload simulation: Clients clients, each with its own
// pre-compute buffer and Poisson request stream, share one server that runs
// one online phase at a time.
type Config struct {
	// OfflineSeconds is the duration of one background pre-compute.
	OfflineSeconds float64
	// OnDemandOfflineSeconds is the offline cost paid inline when the
	// client cannot buffer any pre-compute (Capacity == 0).
	OnDemandOfflineSeconds float64
	// OnlineSeconds is the online-phase duration.
	OnlineSeconds float64
	// Capacity is each client's pre-compute buffer size in units of
	// inferences (0 = the offline phase cannot be engaged).
	Capacity int
	// MaxConcurrent bounds simultaneous background pre-computes across
	// all clients (1 for LPHE; min(storage slots, garbler cores) for RLP;
	// 0 means 1).
	MaxConcurrent int
	// ArrivalsPerMinute is each client's Poisson arrival rate.
	ArrivalsPerMinute float64
	// Clients is the number of clients sharing the server (0 means 1).
	Clients int
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
	if c.Clients < 0 || c.MaxConcurrent < 0 {
		return fmt.Errorf("sim: client and pipeline counts must not be negative")
	}
	return nil
}

// Stats aggregates one run (or the mean over several runs).
type Stats struct {
	Requests    int
	MeanLatency float64 // arrival -> completion, seconds
	// MeanQueueWait is the wait behind earlier inferences: from arrival
	// until the request is its own client's oldest queued request and the
	// server is free.
	MeanQueueWait float64
	// MeanOffline is the rest of the wait before the online phase starts:
	// for a pre-compute of the request's own client while other requests
	// may be served, or the inline offline phase when Capacity == 0.
	MeanOffline float64
	MeanOnline  float64 // online phase (constant per config)
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
	eligible float64 // its client's oldest queued request with the server free
	started  float64 // online phase start
}

type state struct {
	eng *Engine
	cfg Config

	ready    []int        // per client: buffered pre-computes
	inflight []int        // per client: background pre-computes in progress
	running  int          // background pre-computes in progress, all clients
	queues   [][]*request // per client, oldest first
	serving  bool

	latencies []float64
	qwaits    []float64
	offwaits  []float64
}

// Run executes one simulation and returns its statistics.
func Run(cfg Config) (Stats, error) { return RunMany(cfg, 1) }

// RunMany averages runs under seeds Seed, Seed+7919, Seed+2·7919, … (the
// paper uses 50); the quantiles are read off the merged histogram.
func RunMany(cfg Config, runs int) (Stats, error) {
	if runs < 1 {
		runs = 1
	}
	var agg Stats
	var merged obs.HistogramSnapshot
	for i := 0; i < runs; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		st, snap, err := run(c)
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

// run executes one simulation, returning the stats alongside the latency
// histogram snapshot RunMany merges across seeds.
func run(cfg Config) (Stats, obs.HistogramSnapshot, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, obs.HistogramSnapshot{}, err
	}
	if cfg.HorizonSeconds <= 0 {
		cfg.HorizonSeconds = DefaultHorizon
	}
	cfg.MaxConcurrent = max(cfg.MaxConcurrent, 1)
	cfg.Clients = max(cfg.Clients, 1)
	st := &state{
		eng:      &Engine{},
		cfg:      cfg,
		ready:    make([]int, cfg.Clients),
		inflight: make([]int, cfg.Clients),
		queues:   make([][]*request, cfg.Clients),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pre-schedule each client's Poisson arrival process across the horizon.
	meanGap := 60.0 / cfg.ArrivalsPerMinute
	for client := 0; client < cfg.Clients; client++ {
		for t := rng.ExpFloat64() * meanGap; t < cfg.HorizonSeconds; t += rng.ExpFloat64() * meanGap {
			st.eng.Schedule(t, func() {
				st.queues[client] = append(st.queues[client], &request{arrived: st.eng.Now(), eligible: -1})
				st.serve()
			})
		}
	}

	st.refill()
	st.eng.Run()
	out := Stats{Requests: len(st.latencies), MeanOnline: cfg.OnlineSeconds}
	if out.Requests == 0 {
		return out, obs.HistogramSnapshot{}, nil
	}
	out.MeanLatency = mean(st.latencies)
	out.MeanQueueWait = mean(st.qwaits)
	out.MeanOffline = mean(st.offwaits)
	return out, latencySnapshot(st.latencies), nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// refill starts background pre-computes for the neediest clients while
// buffer space and pipeline slots remain. The buffer slot is reserved at
// start (the client must hold the GCs as they stream in).
func (s *state) refill() {
	for s.running < s.cfg.MaxConcurrent {
		c := NeediestClient(s.cfg.Capacity, s.ready, s.inflight)
		if c < 0 {
			return
		}
		s.inflight[c]++
		s.running++
		s.eng.Schedule(s.cfg.OfflineSeconds, func() {
			s.inflight[c]--
			s.running--
			s.ready[c]++
			s.refill()
			s.serve()
		})
	}
}

// serve starts, if the server is free, the oldest request whose client has
// a pre-compute ready, or with Capacity == 0 the oldest request, whose
// offline phase then runs inline. A request waiting on its own client's
// pre-compute does not block other clients' requests.
func (s *state) serve() {
	if s.serving {
		return
	}
	now := s.eng.Now()
	pick := -1
	for c, q := range s.queues {
		if len(q) == 0 {
			continue
		}
		if q[0].eligible < 0 {
			q[0].eligible = now
		}
		if (s.cfg.Capacity == 0 || s.ready[c] > 0) && (pick < 0 || q[0].arrived < s.queues[pick][0].arrived) {
			pick = c
		}
	}
	if pick < 0 {
		// Every queued client waits on a pre-compute in flight; its
		// completion re-enters serve.
		return
	}
	r := s.queues[pick][0]
	s.queues[pick] = s.queues[pick][1:]
	s.serving = true
	var inline float64
	if s.cfg.Capacity == 0 {
		inline = s.cfg.OnDemandOfflineSeconds
	} else {
		s.ready[pick]--
		s.refill() // a buffer slot was freed
	}
	r.started = now + inline
	s.eng.Schedule(inline+s.cfg.OnlineSeconds, func() {
		s.latencies = append(s.latencies, s.eng.Now()-r.arrived)
		s.qwaits = append(s.qwaits, r.eligible-r.arrived)
		s.offwaits = append(s.offwaits, r.started-r.eligible)
		s.serving = false
		s.serve()
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

// SustainableRatePerMinute returns the maximum long-run arrival rate, all
// clients together, the configuration can absorb: the slower of pre-compute
// production and online service.
func (c Config) SustainableRatePerMinute() float64 {
	if c.Capacity == 0 {
		return 60.0 / (c.OnDemandOfflineSeconds + c.OnlineSeconds)
	}
	conc := min(max(c.MaxConcurrent, 1), max(c.Clients, 1)*c.Capacity)
	return math.Min(60.0/c.OnlineSeconds, 60.0*float64(conc)/c.OfflineSeconds)
}
