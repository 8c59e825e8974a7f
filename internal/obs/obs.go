// Package obs is the repo's dependency-free observability substrate:
// atomic counters and gauges, lock-free log-linear histograms with
// mergeable buckets and quantile extraction, and phase-scoped spans for
// the paper's runtime taxonomy (offline-HE, garbling, OT extension,
// per-layer online, wire read/write).
//
// Everything here is stdlib-only and safe for concurrent use. Metrics
// live in a Registry. A component that counts something (a serving
// engine, an artifact registry, a fleet router) owns a Registry, bumps
// only its instruments, and reads its Stats back off them; the
// process-wide Default registry includes those (Registry.Include),
// holds the transport and delphi-client families directly, and is what
// serve.DebugServer exposes as Prometheus text at /metrics.
//
// Instrumentation is on by default. SetEnabled(false) turns the spans —
// the time.Now calls — into a single atomic load; the disabled-path
// cost is pinned by BenchmarkSpanDisabled and gated in CI's perf-gate
// job at <= 10 ns/op and 0 allocs/op. Counters, gauges and direct
// Histogram.Record calls are not gated: owners' Stats are reads of them.
package obs

import (
	"sync/atomic"
	"time"
)

// enabled gates the hot-path timing instrumentation. Counters and
// gauges are plain atomic adds and stay live regardless; spans check
// this flag first so a disabled process pays one atomic load per
// would-be measurement.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// Enabled reports whether timing instrumentation (spans) is active.
func Enabled() bool { return enabled.Load() }

// SetEnabled toggles timing instrumentation process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// Span measures one occurrence of a phase into a Histogram. The zero
// Span is inert: End on it is a nil check and nothing else, which is
// what StartSpan returns when instrumentation is disabled.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing a phase. When instrumentation is disabled
// the only cost is the atomic load; the returned zero Span makes End a
// no-op. The Span is a value — it never allocates.
func StartSpan(h *Histogram) Span {
	if !enabled.Load() || h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End records the elapsed time since StartSpan into the span's
// histogram. Safe on the zero Span.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Record(time.Since(s.start))
}
