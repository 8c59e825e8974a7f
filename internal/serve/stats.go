package serve

import (
	"sort"
	"time"

	"privinf/internal/obs"
)

// SessionStats is one session's metrics snapshot.
type SessionStats struct {
	ID   uint64
	Addr string
	// Model is the registry name of the model this session serves.
	Model string
	// Resumed marks a session whose OT setup was expanded from a
	// resumption ticket instead of running base OTs.
	Resumed bool
	// Buffered is the session's current pre-compute buffer depth.
	Buffered int
	// QueueDepth counts the session's inference requests that are queued
	// or being served; a request stops counting before its result is sent.
	QueueDepth int
	// Precomputes and Inferences count completed phases.
	Precomputes uint64
	Inferences  uint64
	// MeanOffline and MeanOnline are mean phase latencies.
	MeanOffline time.Duration
	MeanOnline  time.Duration
	// BytesSent and BytesRecv are the connection totals, framing included.
	BytesSent uint64
	BytesRecv uint64
}

// ModelStats is one registered model's slice of the engine: its live
// sessions and their aggregate buffer fill, plus the registry's artifact
// cache counters for the model.
type ModelStats struct {
	Name string
	// Sessions counts currently connected sessions serving this model;
	// Buffered is their aggregate pre-compute buffer depth.
	Sessions int
	Buffered int
	// Queue telemetry — the per-model signals a fleet autoscaler's queue
	// model consumes. QueueDepth is the sum of the model's live sessions'
	// SessionStats.QueueDepth;
	// Inferences and Precomputes are lifetime phase counts (disconnected
	// sessions included); MeanOnline and MeanOffline are the lifetime mean
	// phase latencies (the online one is the queue model's service time).
	QueueDepth  int
	Inferences  uint64
	Precomputes uint64
	MeanOnline  time.Duration
	MeanOffline time.Duration
	// Resident reports whether the built artifact is currently held by the
	// registry, and SizeBytes its footprint (0 when evicted or not yet
	// built). Sessions opened before an eviction keep serving from the
	// evicted artifact. OnDisk reports whether THIS process has confirmed a
	// current copy in the backing store (written or reloaded since start-up);
	// it is false for a model whose file exists but has not been resolved
	// yet this run, and always false on memory-only registries.
	Resident  bool
	OnDisk    bool
	SizeBytes int64
	// Hits, Misses and Evictions are the registry's lifetime counters for
	// this model: a miss paid an artifact resolve (disk reload or rebuild),
	// an eviction dropped the built artifact under byte-budget pressure.
	Hits, Misses, Evictions uint64
	// Pinned reports whether the artifact is exempt from LRU eviction
	// (Registry.Pin).
	Pinned bool
	// Spills, Reloads, LoadErrors and SpillErrors are the disk layer's
	// counters for this model (see RegistryStats).
	Spills, Reloads         uint64
	LoadErrors, SpillErrors uint64
	// TicketsIssued, Resumes and ResumeRejects are the resumption cache's
	// counters attributed to sessions of this model (the seed material
	// itself is model-independent; attribution follows the session's
	// requested model).
	TicketsIssued uint64
	Resumes       uint64
	ResumeRejects uint64
}

// Stats is an engine-wide metrics snapshot.
type Stats struct {
	Sessions []SessionStats // sorted by session ID
	// Models partitions the engine per registered model — session counts,
	// buffer fill, registry hit/miss/eviction counters — sorted by name.
	Models []ModelStats
	// ActiveSessions is the number of connected sessions.
	ActiveSessions int
	// TotalBuffered is the global buffered pre-compute count. Background
	// refills never push it past a positive StorageBudget (in-flight
	// refills included in the budget accounting), but explicit
	// client-requested pre-computes bypass the budget and can exceed it.
	TotalBuffered int
	// RefillsInFlight counts scheduled offline phases currently running.
	RefillsInFlight  int
	TotalPrecomputes uint64
	TotalInferences  uint64
	// RegistryBudget and RegistryBytes are the artifact cache's byte budget
	// (<= 0 unbounded) and current resident footprint; the counters are
	// registry lifetime totals across all models. The Spill/Reload/LoadError
	// counters are the disk layer's totals (zero without an artifact store).
	RegistryBudget      int64
	RegistryBytes       int64
	RegistryHits        uint64
	RegistryMisses      uint64
	RegistryEvictions   uint64
	RegistrySpills      uint64
	RegistryReloads     uint64
	RegistryLoadErrors  uint64
	RegistrySpillErrors uint64
	// Tickets is the OT resumption cache's snapshot (zero-valued when
	// resumption is disabled).
	Tickets TicketStats
	// GarbleRequests and GarbleCoalesced are always zero. They counted an
	// engine-wide garbling coalescer that no longer exists (each session
	// garbles its own layers) and stay only for readers that still load
	// them.
	GarbleRequests  uint64
	GarbleCoalesced uint64
}

// Stats snapshots per-session, per-model and aggregate metrics. Every
// lifetime count is a read of the engine's (and its registry's) obs
// instruments — the series /metrics exports — so totals include sessions
// that have since disconnected and hold with obs.SetEnabled(false).
func (e *Engine) Stats() Stats {
	buffered, inflight := e.sched.snapshot()
	rst := e.reg.Stats()

	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		RefillsInFlight:     inflight,
		RegistryBudget:      rst.Budget,
		RegistryBytes:       rst.BytesResident,
		RegistryHits:        rst.Hits,
		RegistryMisses:      rst.Misses,
		RegistryEvictions:   rst.Evictions,
		RegistrySpills:      rst.Spills,
		RegistryReloads:     rst.Reloads,
		RegistryLoadErrors:  rst.LoadErrors,
		RegistrySpillErrors: rst.SpillErrors,
	}
	// Partition the engine per model: start from the registry's per-model
	// cache counters, read the model's phase history off its offline and
	// online histograms and its resumption traffic off the ticket events,
	// then fold in each live session's state.
	st.Models = rst.Models // already sorted by name
	byModel := make(map[string]*ModelStats, len(st.Models))
	for i := range st.Models {
		byModel[st.Models[i].Name] = &st.Models[i]
	}
	e.met.offline.Each(func(lv []string, h *obs.Histogram) {
		st.TotalPrecomputes += h.Count()
		if ms := byModel[lv[0]]; ms != nil {
			ms.Precomputes, ms.MeanOffline = h.Count(), mean(h.Sum(), h.Count())
		}
	})
	e.met.online.Each(func(lv []string, h *obs.Histogram) {
		st.TotalInferences += h.Count()
		if ms := byModel[lv[0]]; ms != nil {
			ms.Inferences, ms.MeanOnline = h.Count(), mean(h.Sum(), h.Count())
		}
	})
	if e.tickets != nil {
		st.Tickets = e.tickets.stats(byModel)
	}
	for _, s := range e.conns {
		if s == nil {
			continue // still handshaking
		}
		s.statMu.Lock()
		ss := SessionStats{
			ID:          s.id,
			Addr:        s.addr,
			Model:       s.model,
			Resumed:     s.resumed,
			Buffered:    buffered[s],
			QueueDepth:  s.queueDepth(),
			Precomputes: s.precomputes,
			Inferences:  s.inferences,
			MeanOffline: mean(s.offlineTotal, s.precomputes),
			MeanOnline:  mean(s.onlineTotal, s.inferences),
			BytesSent:   s.m.conn.SentBytes(),
			BytesRecv:   s.m.conn.RecvBytes(),
		}
		s.statMu.Unlock()
		st.Sessions = append(st.Sessions, ss)
		st.ActiveSessions++
		st.TotalBuffered += ss.Buffered
		if ms := byModel[ss.Model]; ms != nil {
			ms.Sessions++
			ms.Buffered += ss.Buffered
			ms.QueueDepth += ss.QueueDepth
		}
	}
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].ID < st.Sessions[j].ID })
	return st
}

// queueDepth is the number of inference requests waiting in the session's
// control mailbox plus the one being served. Called with s.statMu held.
func (s *session) queueDepth() int {
	n := s.m.ctrl.count(func(cm ctrlMsg) bool { return cm.op == opInferReq })
	if s.serving {
		n++
	}
	return n
}
