package sim

import (
	"fmt"
	"math/rand"

	"privinf/internal/obs"
)

// Multi-client simulation (§5.2's discussion): several clients, each with
// its own small pre-compute buffer, share one server. Total client storage
// scales with the client count, so the server can exploit request-level
// parallelism across clients — but each client still buffers at most a few
// pre-computes, so per-client latency behaves like the small-storage
// single-client case.

// MultiClientConfig parameterizes a shared-server workload.
type MultiClientConfig struct {
	Clients int
	// PerClientCapacity is each client's pre-compute buffer (slots).
	PerClientCapacity int
	// OfflineSeconds is one pre-compute pipeline's duration (RLP-style,
	// one pipeline per client pre-compute).
	OfflineSeconds float64
	// ServerConcurrent bounds concurrent pre-compute pipelines server-side
	// (e.g. the server core count).
	ServerConcurrent int
	// OnlineSeconds is the online phase duration; the server serves one
	// inference at a time across all clients (FIFO).
	OnlineSeconds float64
	// ArrivalsPerMinutePerClient is each client's Poisson rate.
	ArrivalsPerMinutePerClient float64
	HorizonSeconds             float64
	Seed                       int64
}

// Validate rejects unusable configurations.
func (c MultiClientConfig) Validate() error {
	if c.Clients < 1 {
		return fmt.Errorf("sim: need at least one client")
	}
	if c.OnlineSeconds <= 0 || c.OfflineSeconds <= 0 {
		return fmt.Errorf("sim: phase durations must be positive")
	}
	if c.ArrivalsPerMinutePerClient <= 0 {
		return fmt.Errorf("sim: arrival rate must be positive")
	}
	if c.ServerConcurrent < 1 {
		return fmt.Errorf("sim: server must run at least one pipeline")
	}
	return nil
}

type mcRequest struct {
	client   int
	arrived  float64
	eligible float64
	started  float64
}

type mcState struct {
	eng *Engine
	cfg MultiClientConfig

	ready    []int // per-client buffered pre-computes
	inflight []int // per-client pipelines in progress
	total    int   // total pipelines in progress
	queue    []*mcRequest
	serving  bool

	samples
}

// RunMultiClient runs one multi-client simulation.
func RunMultiClient(cfg MultiClientConfig) (Stats, error) { return RunManyMultiClient(cfg, 1) }

// runMultiClient executes one simulation, returning the stats alongside
// the latency histogram snapshot RunManyMultiClient merges across seeds.
func runMultiClient(cfg MultiClientConfig) (Stats, obs.HistogramSnapshot, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, obs.HistogramSnapshot{}, err
	}
	if cfg.HorizonSeconds <= 0 {
		cfg.HorizonSeconds = DefaultHorizon
	}
	st := &mcState{
		eng:      &Engine{},
		cfg:      cfg,
		ready:    make([]int, cfg.Clients),
		inflight: make([]int, cfg.Clients),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	meanGap := 60.0 / cfg.ArrivalsPerMinutePerClient
	for c := 0; c < cfg.Clients; c++ {
		client := c
		for t := rng.ExpFloat64() * meanGap; t < cfg.HorizonSeconds; t += rng.ExpFloat64() * meanGap {
			at := t
			st.eng.Schedule(at, func() { st.arrive(client) })
		}
	}
	st.refill()
	st.eng.Run()
	out, snap := st.stats(cfg.OnlineSeconds)
	return out, snap, nil
}

// refill starts pipelines for the neediest clients while server slots and
// client buffer space remain.
func (s *mcState) refill() {
	for s.total < s.cfg.ServerConcurrent {
		c := NeediestClient(s.cfg.PerClientCapacity, s.ready, s.inflight)
		if c < 0 {
			return
		}
		s.inflight[c]++
		s.total++
		s.eng.Schedule(s.cfg.OfflineSeconds, func() {
			s.inflight[c]--
			s.total--
			s.ready[c]++
			s.refill()
			s.serve()
		})
	}
}

func (s *mcState) arrive(client int) {
	s.queue = append(s.queue, &mcRequest{client: client, arrived: s.eng.Now(), eligible: -1})
	s.serve()
}

// serve picks the oldest request whose client has a pre-compute ready.
// Unlike the single-client simulator's strict FIFO, a request whose own
// buffer is empty does not block other clients — head-of-line blocking
// across tenants would let one client's refill stall everyone, which no
// real serving system would accept. Passed-over requests accrue their wait
// as offline time.
func (s *mcState) serve() {
	if s.serving || len(s.queue) == 0 {
		return
	}
	now := s.eng.Now()
	pick := -1
	for i, r := range s.queue {
		if r.eligible < 0 {
			r.eligible = now
		}
		if s.ready[r.client] > 0 {
			pick = i
			break
		}
	}
	if pick < 0 {
		// Every queued client is waiting on its pipeline; completions
		// re-enter serve.
		s.refill()
		return
	}
	r := s.queue[pick]
	s.queue = append(s.queue[:pick], s.queue[pick+1:]...)
	s.ready[r.client]--
	s.serving = true
	r.started = now
	s.refill()
	s.eng.Schedule(s.cfg.OnlineSeconds, func() {
		s.record(r.arrived, r.eligible, r.started, s.eng.Now())
		s.serving = false
		s.serve()
	})
}

// RunManyMultiClient averages runs with distinct seeds.
func RunManyMultiClient(cfg MultiClientConfig, runs int) (Stats, error) {
	return runMany(runs, cfg.Seed, 104729, func(seed int64) (Stats, obs.HistogramSnapshot, error) {
		c := cfg
		c.Seed = seed
		return runMultiClient(c)
	})
}
