// Package obs is the minimal registry surface the obsreg fixture
// registers against: the analyzer matches the registration methods by
// name on any package named obs, so the fixture does not depend on the
// real internal/obs.
package obs

// Registry registers metric families by name.
type Registry struct{}

// Default returns the process-wide registry.
func Default() *Registry { return &Registry{} }

// NewRegistry returns a registry a component owns.
func NewRegistry() *Registry { return &Registry{} }

// Counter, Gauge and Histogram stand in for the real metric types.
type (
	Counter   struct{}
	Gauge     struct{}
	Histogram struct{}
	Vec       struct{}
)

func (r *Registry) Counter(name, help string) *Counter     { return &Counter{} }
func (r *Registry) Gauge(name, help string) *Gauge         { return &Gauge{} }
func (r *Registry) Histogram(name, help string) *Histogram { return &Histogram{} }

func (r *Registry) CounterVec(name, help string, labels ...string) *Vec   { return &Vec{} }
func (r *Registry) GaugeVec(name, help string, labels ...string) *Vec     { return &Vec{} }
func (r *Registry) HistogramVec(name, help string, labels ...string) *Vec { return &Vec{} }
