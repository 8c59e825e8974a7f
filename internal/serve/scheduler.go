package serve

import (
	"sync"

	"privinf/internal/obs"
	"privinf/internal/sim"
)

// scheduler is the background pre-compute refiller: it decides which
// session's buffer to top up next, under two global limits the paper's
// arrival-rate analysis turns on — a client-storage budget (how many
// pre-computes may be buffered across all sessions at once) and an offline
// worker pool (how many offline phases may run concurrently, the server's
// pre-processing parallelism).
//
// Sessions of every registered model share one scheduler: the storage
// budget and worker pool are global (aggregate client storage is what the
// paper's §5.2 analysis budgets, regardless of which network each client
// runs), and the per-model partition of buffer fill is reported through
// snapshot for Stats.
//
// The pick policy is two-level. Across models it is equal-share max-min
// fairness: among models with a refillable session the scheduler picks the
// one with the smallest storage use (committed pre-computes), so a hot
// model with many sessions cannot monopolize the budget and starve a cold
// model's lone client. Within the picked model it is the simulator's
// largest-deficit rule (sim.NeediestClient), so per-model the live engine
// makes exactly the decisions internal/sim's multi-client predictions
// assume — and with a single model the two-level policy degenerates to the
// plain global largest-deficit rule.
type scheduler struct {
	mu sync.Mutex
	// capacity is the per-session buffer target; 0 disables background
	// refills (the storage-starved configuration: every inference pays the
	// offline phase inline).
	capacity int
	// budget caps total buffered pre-computes across sessions; < 0 means
	// unbounded. Explicit client-requested pre-computes bypass it (the
	// client owns its storage); only background refills are throttled.
	budget int
	// workers bounds concurrent scheduled offline phases.
	workers  int
	inflight int
	sessions []*session
	// buffered is the engine's pi_precompute_buffered gauge, moved in step
	// with the sessions' bufCount.
	buffered *obs.Gauge
}

func newScheduler(capacity, budget, workers int, buffered *obs.Gauge) *scheduler {
	if workers < 1 {
		workers = 1
	}
	return &scheduler{capacity: capacity, budget: budget, workers: workers, buffered: buffered}
}

// setBudget replaces the storage budget at runtime (the autoscaler's
// per-replica budget reassignment) and immediately hands out any refill
// grants a raised budget admits. A lowered budget never cancels buffered
// pre-computes — they drain through consumption.
func (sc *scheduler) setBudget(budget int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.budget = budget
	sc.kick()
}

func (sc *scheduler) register(s *session) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.sessions = append(sc.sessions, s)
	sc.kick()
}

func (sc *scheduler) unregister(s *session) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, t := range sc.sessions {
		if t == s {
			sc.sessions = append(sc.sessions[:i], sc.sessions[i+1:]...)
			break
		}
	}
	if s.granted {
		s.granted = false
		sc.inflight--
	}
	// The departing session takes its buffered pre-computes with it;
	// keep the global depth gauge in step with used().
	sc.buffered.Add(-int64(s.bufCount))
	sc.kick()
}

// added records a completed pre-compute (scheduled, requested, or inline
// consumed right away — the caller pairs inline ones with consumed).
func (sc *scheduler) added(s *session) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	s.bufCount++
	sc.buffered.Add(1)
}

// grantDone retires a scheduled grant, successful or not.
func (sc *scheduler) grantDone(s *session) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if s.granted {
		s.granted = false
		sc.inflight--
	}
	sc.kick()
}

// consumed records an online phase eating one buffered pre-compute, which
// may open budget for another refill.
func (sc *scheduler) consumed(s *session) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	s.bufCount--
	sc.buffered.Add(-1)
	sc.kick()
}

// used is the global storage commitment: buffered plus in-flight refills.
func (sc *scheduler) used() int {
	n := sc.inflight
	for _, s := range sc.sessions {
		n += s.bufCount
	}
	return n
}

// pick chooses the next session to refill: max-min fair across models,
// largest-deficit within the picked model. Called with sc.mu held. Returns
// nil when no session is refillable (all at capacity or granted).
func (sc *scheduler) pick() *session {
	// Per-model use. Counting in-flight grants against the granting model
	// keeps consecutive picks from piling onto one model before any of its
	// refills complete.
	use := make(map[string]int)
	for _, s := range sc.sessions {
		n := s.bufCount
		if s.granted {
			n++
		}
		use[s.model] += n
	}

	best := ""
	for _, s := range sc.sessions {
		if s.granted || s.bufCount >= sc.capacity {
			continue
		}
		m := s.model
		if best == "" || use[m] < use[best] {
			best = m
		}
	}
	if best == "" {
		return nil
	}

	// Within the model: the simulator's largest-deficit rule over that
	// model's sessions only.
	var members []*session
	for _, s := range sc.sessions {
		if s.model == best {
			members = append(members, s)
		}
	}
	ready := make([]int, len(members))
	inflight := make([]int, len(members))
	for i, s := range members {
		ready[i] = s.bufCount
		if s.granted {
			inflight[i] = sc.capacity // at most one grant each; mask out
		}
	}
	i := sim.NeediestClient(sc.capacity, ready, inflight)
	if i < 0 {
		return nil
	}
	return members[i]
}

// kick hands out refill grants while worker slots and budget remain.
// Called with sc.mu held. A session never holds more than one grant: its
// phases are serialized on one connection, so a second concurrent grant
// could not run anyway. A grant is an entry pushed into the session's
// control mailbox, served in turn with the client's requests; a closed
// mailbox drops it, and unregister releases it.
func (sc *scheduler) kick() {
	if sc.capacity <= 0 || sc.budget == 0 {
		return
	}
	for sc.inflight < sc.workers {
		if sc.budget > 0 && sc.used() >= sc.budget {
			return
		}
		s := sc.pick()
		if s == nil {
			return
		}
		s.granted = true
		sc.inflight++
		s.m.ctrl.push(ctrlMsg{grant: true})
	}
}

// snapshot returns each session's buffered pre-compute count and the
// refills in flight for Stats, under one lock acquisition.
func (sc *scheduler) snapshot() (buffered map[*session]int, inflight int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	buffered = make(map[*session]int, len(sc.sessions))
	for _, s := range sc.sessions {
		buffered[s] = s.bufCount
	}
	return buffered, sc.inflight
}
