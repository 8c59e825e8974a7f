package serve

import (
	"time"

	"privinf/internal/obs"
)

// Metric names the serving stack publishes. An event is counted in
// exactly one place — an instrument on the obs registry of the component
// that paid for it — and Engine.Stats / Registry.Stats are typed reads of
// those instruments, so /metrics and Stats cannot disagree. Names are
// package-level constants registered exactly once (the obsreg analyzer
// enforces this shape repo-wide). The phase histograms mirror the paper's
// runtime decomposition: offline-HE (linear-layer share generation),
// garbling, OT extension, and the online phase; docs/observability.md
// maps each to the paper's figures.
const (
	metricOfflineHESeconds     = "pi_offline_he_seconds"
	metricOfflineGarbleSeconds = "pi_offline_garble_seconds"
	metricOfflineOTSeconds     = "pi_offline_ot_seconds"
	metricOfflineSeconds       = "pi_offline_seconds"
	metricOnlineSeconds        = "pi_online_seconds"
	metricSetupSeconds         = "pi_setup_seconds"
	metricHandshakesTotal      = "pi_handshakes_total"
	metricResumeTotal          = "pi_resume_total"
	metricSessionsActive       = "pi_sessions_active"
	metricPrecomputeBuffered   = "pi_precompute_buffered"
	metricTicketsTotal         = "pi_tickets_total"
	metricRegistryTotal        = "pi_registry_total"
)

// Handshake outcome and resume-tier label values that have no wire
// code of their own (rejections reuse the rejectMsg / resumeReject
// codes verbatim).
const (
	outcomeOK         = "ok"
	outcomeSetupError = "setup_error"
	outcomeEngineErr  = "engine_error"
	tierFull          = "full"
	tierResumed       = "resumed"
)

// Event label values of pi_tickets_total. Events a session's hello
// caused carry its model; the rest (prune, load sweep, eviction, disk
// traffic) carry model="" — a ticket is model-independent.
const (
	ticketIssued       = "issued"
	ticketResumed      = "resumed"
	ticketExpired      = "expired"
	ticketUnknown      = "unknown"
	ticketEvicted      = "evicted"
	ticketLoaded       = "loaded"
	ticketLoadError    = "load_error"
	ticketPersisted    = "persisted"
	ticketPersistError = "persist_error"
)

// mount returns a fresh obs registry included in the process view
// (/metrics sums it with every other component's) and the function that
// retires it when its owner closes: the final counts fold into the
// process view, which therefore never runs backwards, and the registry
// becomes unreachable (obs.Registry.Include).
func mount() (*obs.Registry, func()) {
	reg := obs.NewRegistry()
	return reg, obs.Default().Include(reg)
}

// engineMetrics are the instruments one Engine owns, built once in New.
// Every engine event site bumps one of these and nothing else.
type engineMetrics struct {
	reg    *obs.Registry
	retire func()

	offlineHE, offlineGarble, offlineOT, offline, online *obs.HistogramVec // by model
	setup                                                *obs.HistogramVec // by tier
	handshakes, resume                                   *obs.CounterVec
	sessions, buffered                                   *obs.Gauge
	tickets                                              *obs.CounterVec // by model, event
}

func newEngineMetrics() *engineMetrics {
	reg, retire := mount()
	return &engineMetrics{
		reg:           reg,
		retire:        retire,
		offlineHE:     reg.HistogramVec(metricOfflineHESeconds, "Offline HE linear-layer share generation latency by model.", "model"),
		offlineGarble: reg.HistogramVec(metricOfflineGarbleSeconds, "Offline ReLU circuit garbling latency by model.", "model"),
		offlineOT:     reg.HistogramVec(metricOfflineOTSeconds, "Offline OT-extension transfer latency by model.", "model"),
		offline:       reg.HistogramVec(metricOfflineSeconds, "End-to-end offline (pre-compute) phase latency by model.", "model"),
		online:        reg.HistogramVec(metricOnlineSeconds, "Online inference phase latency by model.", "model"),
		setup:         reg.HistogramVec(metricSetupSeconds, "Session setup latency by tier (full = base OTs + HE keygen, resumed = ticket seed expansion).", "tier"),
		handshakes:    handshakeOutcomes(reg),
		resume:        reg.CounterVec(metricResumeTotal, "Session establishment tiers: resumed (ticket redeemed), full (base OTs), or a resume-reject code that fell back to full.", "tier"),
		sessions:      reg.Gauge(metricSessionsActive, "Currently connected sessions."),
		buffered:      reg.Gauge(metricPrecomputeBuffered, "Buffered pre-computes across all sessions (the client-storage commitment)."),
		tickets:       reg.CounterVec(metricTicketsTotal, "Resumption ticket cache events: issued, resumed, expired, unknown, evicted, loaded, load_error, persisted, persist_error.", "model", "event"),
	}
}

// handshakeOutcomes is pi_handshakes_total on reg: an engine's, or a front
// tier's for the openings it rejects itself (readHello, RejectNoBackend).
func handshakeOutcomes(reg *obs.Registry) *obs.CounterVec {
	return reg.CounterVec(metricHandshakesTotal, "Handshake outcomes: ok, typed rejection codes, or setup/engine errors.", "outcome")
}

// OnlineLatency returns this engine's online-phase latency histogram for
// a model — the distribution a fleet autoscaler's sizing consumes, per
// replica and windowed via HistogramSnapshot.Sub, in place of lifetime
// counter deltas.
func (e *Engine) OnlineLatency(model string) *obs.Histogram {
	return e.met.online.With(model)
}

// mean is total/n, 0 when nothing was counted.
func mean(total time.Duration, n uint64) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
