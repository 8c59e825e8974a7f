// Package metrics is the obsreg fixture: obs metric families must be
// registered under package-level string constants, each constant at
// exactly one registration site — no literals, no computed names.
package metrics

import (
	"fmt"

	"privinf/internal/lint/testdata/src/obsreg/obs"
)

// The package's series vocabulary, in one greppable block.
const (
	metricGoodTotal      = "pi_good_total"
	metricGoodDepth      = "pi_good_depth"
	metricGoodVecSeconds = "pi_good_vec_seconds"
	metricDupTotal       = "pi_dup_total"
	metricOwnedTotal     = "pi_owned_total"
	metricOwnedDepth     = "pi_owned_depth"
	metricSharedTotal    = "pi_shared_total"
)

// Good: package-level constants, one registration site each.
var (
	goodCounter = obs.Default().Counter(metricGoodTotal, "Counted things.")
	goodGauge   = obs.Default().Gauge(metricGoodDepth, "Current depth.")
	goodVec     = obs.Default().HistogramVec(metricGoodVecSeconds, "Timed things.", "model")
)

// Good: a component registers its instruments once, in its constructor, on
// a registry it owns or is handed. The analyzer checks the name constant,
// not the receiver, so this is the same shape as the package-level form.
type owner struct {
	events *obs.Vec
	depth  *obs.Gauge
	shared *obs.Vec
}

func newOwner(reg *obs.Registry) *owner {
	return &owner{
		events: reg.CounterVec(metricOwnedTotal, "Owned events.", "model", "event"),
		depth:  obs.NewRegistry().Gauge(metricOwnedDepth, "Owned depth."),
		shared: reg.CounterVec(metricSharedTotal, "Events two owners count."),
	}
}

// Bad: a second constructor registering the same constant — the two
// owners' families collide in any view that includes both.
func newOtherOwner(reg *obs.Registry) *owner {
	return &owner{shared: reg.CounterVec(metricSharedTotal, "Events two owners count.")} // want "registered more than once"
}

// Bad: a literal name has no greppable constant.
var litCounter = obs.Default().Counter("pi_literal_total", "Literal-named.") // want "not a string literal"

// Bad: a computed name cannot be found before the process runs.
var sprintfGauge = obs.Default().Gauge(fmt.Sprintf("pi_%s_depth", "queue"), "Sprintf-named.") // want "not a computed expression"

// Bad: two sites registering one constant silently share a family.
var (
	dupA = obs.Default().Counter(metricDupTotal, "First site.")
	dupB = obs.Default().Counter(metricDupTotal, "Second site.") // want "registered more than once"
)

// Bad: a runtime-chosen name defeats the static vocabulary.
func makeCounter(name string) *obs.Counter {
	return obs.Default().Counter(name, "Runtime-named.") // want "not a variable"
}

// Bad: a function-local constant hides the name from the package block.
func localConst() *obs.Histogram {
	const name = "pi_local_seconds"
	return obs.Default().Histogram(name, "Locally-named.") // want "declared at package level"
}
