package fleet

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"privinf/internal/cost"
	"privinf/internal/obs"
	"privinf/internal/serve"
)

// AutoscalerConfig parameterizes the control loop.
type AutoscalerConfig struct {
	// Router is the front tier whose replica set the autoscaler manages.
	Router *Router
	// Spawn builds one fresh replica engine for a scale-up (typically
	// serve.New over a shared Registry, so replicas share artifacts via
	// the disk store rather than re-encoding weights).
	Spawn func() (*serve.Engine, error)
	// MinReplicas and MaxReplicas bound the replica set. Min < 1 is
	// treated as 1; Max < Min as Min.
	MinReplicas int
	MaxReplicas int
	// TargetWait is the per-model queueing-delay target the M/M/c model
	// sizes the fleet against: the expected time an inference request
	// waits for a free server before service starts. 0 uses
	// DefaultTargetWait.
	TargetWait time.Duration
	// Period is the control interval; 0 uses DefaultPeriod.
	Period time.Duration
	// ShrinkAfter is the scale-down hysteresis: the desired size must stay
	// below the current size for this many consecutive control periods
	// before a replica is removed (one per period). Scale-ups apply
	// immediately. 0 uses DefaultShrinkAfter.
	ShrinkAfter int
	// StorageSlots is the fleet-global pre-compute storage budget, divided
	// evenly across replicas after every resize
	// (Engine.SetStorageBudget). 0 leaves replica budgets alone.
	StorageSlots int
	// Profiles optionally maps model names to cost-model scenarios: until
	// measured online-latency telemetry exists (a cold fleet), each model's
	// expected service time is its profile's analytic online latency
	// (Scenario.Compute().Online()) instead of DefaultServiceTime, so the
	// first sizing decision reflects the model actually deployed.
	Profiles map[string]cost.Scenario
	// DrainTimeout bounds a scale-down drain; 0 uses DefaultDrainTimeout.
	DrainTimeout time.Duration
}

// Autoscaler control-loop defaults.
const (
	DefaultTargetWait   = 50 * time.Millisecond
	DefaultPeriod       = 2 * time.Second
	DefaultShrinkAfter  = 3
	DefaultDrainTimeout = 30 * time.Second
	DefaultServiceTime  = 20 * time.Millisecond
)

// ModelLoad is one model's measured load over a control period — the
// queueing model's per-model input.
type ModelLoad struct {
	Model string
	// Arrival is the measured inference arrival rate, per second.
	Arrival float64
	// Service is the expected per-inference online latency: the mean of
	// this period's slice of the model's online-latency histogram, or a
	// profile/default estimate when the window is empty.
	Service time.Duration
	// ServiceP50 and ServiceP99 are the measured window's latency
	// quantiles (0 when the window is empty) — tail context the mean
	// hides.
	ServiceP50 time.Duration
	ServiceP99 time.Duration
	// Backlog is the queue depth observed at period end (requests accepted
	// but unfinished); the planner treats it as extra arrivals to drain.
	Backlog int
}

// Decision is one control period's outcome.
type Decision struct {
	// Current and Desired are the replica counts before the period's
	// action and the planner's target.
	Current int
	Desired int
	// Wait is the M/M/c expected queueing delay at the Desired size.
	Wait time.Duration
	// Utilization is offered load over capacity at the Desired size.
	Utilization float64
	// Loads are the per-model measurements the decision derives from,
	// sorted by model name.
	Loads []ModelLoad
	// ScaledUp and ScaledDown report the action taken this period.
	ScaledUp   bool
	ScaledDown bool
}

// Autoscaler grows and shrinks a router's replica set. Drive it with Run,
// or call Tick directly for step-by-step control (tests, benchmarks).
type Autoscaler struct {
	cfg AutoscalerConfig
	// profiled is each profiled model's cold-fleet service time.
	profiled map[string]time.Duration

	// prev holds each replica's last-seen per-model online-latency
	// histogram snapshot (Engine.OnlineLatency); a period's measurement is
	// the snapshot delta, its count the arrivals and its buckets the
	// service-time window. Keyed by replica ID — a removed replica's
	// history dies with it — and read only off the router's own replicas,
	// so another fleet in the process never leaks into the window. A
	// replica's first sighting records baselines and measures nothing.
	prev map[int]map[string]obs.HistogramSnapshot
	// below counts consecutive periods with desired < current.
	below int
}

// NewAutoscaler validates the config and returns an idle autoscaler (no
// control period has run; the replica set is whatever the router holds).
func NewAutoscaler(cfg AutoscalerConfig) (*Autoscaler, error) {
	if cfg.Router == nil {
		return nil, fmt.Errorf("fleet: autoscaler needs a router")
	}
	if cfg.Spawn == nil {
		return nil, fmt.Errorf("fleet: autoscaler needs a spawn function")
	}
	if cfg.MinReplicas < 1 {
		cfg.MinReplicas = 1
	}
	if cfg.MaxReplicas < cfg.MinReplicas {
		cfg.MaxReplicas = cfg.MinReplicas
	}
	if cfg.TargetWait <= 0 {
		cfg.TargetWait = DefaultTargetWait
	}
	if cfg.Period <= 0 {
		cfg.Period = DefaultPeriod
	}
	if cfg.ShrinkAfter <= 0 {
		cfg.ShrinkAfter = DefaultShrinkAfter
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	profiled := make(map[string]time.Duration, len(cfg.Profiles))
	for m, sc := range cfg.Profiles {
		profiled[m] = time.Duration(sc.Compute().Online() * float64(time.Second))
	}
	return &Autoscaler{cfg: cfg, profiled: profiled, prev: map[int]map[string]obs.HistogramSnapshot{}}, nil
}

// Run executes control periods until ctx ends.
func (a *Autoscaler) Run(ctx context.Context) error {
	tick := time.NewTicker(a.cfg.Period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if _, err := a.Tick(ctx); err != nil {
				return err
			}
		}
	}
}

// Tick runs one control period: measure, plan, resize by at most one
// replica, re-divide the per-replica budgets.
func (a *Autoscaler) Tick(ctx context.Context) (Decision, error) {
	reps := a.cfg.Router.Replicas()
	loads := a.measure(reps)
	d := Decision{Current: len(reps), Loads: loads}
	d.Desired, d.Wait, d.Utilization = PlanReplicas(loads, a.cfg.MinReplicas, a.cfg.MaxReplicas, a.cfg.TargetWait)

	switch {
	case d.Desired > d.Current:
		a.below = 0
		eng, err := a.cfg.Spawn()
		if err != nil {
			return d, fmt.Errorf("fleet: scale-up spawn: %w", err)
		}
		if _, err := a.cfg.Router.AddEngine(eng); err != nil {
			eng.Close()
			return d, err
		}
		d.ScaledUp = true
		a.cfg.Router.met.scale.With(actionUp).Inc()
	case d.Desired < d.Current:
		a.below++
		if a.below >= a.cfg.ShrinkAfter {
			a.below = 0
			if rep := victim(reps); rep != nil {
				dctx, cancel := context.WithTimeout(ctx, a.cfg.DrainTimeout)
				err := a.cfg.Router.Remove(dctx, rep)
				cancel()
				delete(a.prev, rep.ID)
				if err != nil {
					return d, fmt.Errorf("fleet: scale-down drain: %w", err)
				}
				d.ScaledDown = true
				a.cfg.Router.met.scale.With(actionDown).Inc()
			}
		}
	default:
		a.below = 0
	}

	a.rebudget()
	return d, nil
}

// measure reads every in-process replica's per-model telemetry: this
// period's slice of each replica's online-latency histogram gives the
// model's arrivals (the slice's count) and, merged across replicas, its
// service-time window.
func (a *Autoscaler) measure(reps []*Replica) []ModelLoad {
	period := a.cfg.Period.Seconds()
	agg := map[string]*ModelLoad{}
	window := map[string]*obs.HistogramSnapshot{}
	for _, rep := range reps {
		if rep.eng == nil {
			continue // remote replicas expose no telemetry
		}
		st := rep.eng.Stats()
		last := a.prev[rep.ID]
		fresh := last == nil // first sighting: record baselines, count no arrivals
		if fresh {
			last = map[string]obs.HistogramSnapshot{}
			a.prev[rep.ID] = last
		}
		for _, ms := range st.Models {
			l := agg[ms.Name]
			if l == nil {
				l = &ModelLoad{Model: ms.Name}
				agg[ms.Name] = l
				window[ms.Name] = &obs.HistogramSnapshot{}
			}
			snap := rep.eng.OnlineLatency(ms.Name).Snapshot()
			if !fresh {
				delta := snap.Sub(last[ms.Name])
				l.Arrival += float64(delta.Count) / period
				window[ms.Name].Merge(delta)
			}
			last[ms.Name] = snap
			l.Backlog += ms.QueueDepth
		}
	}
	loads := make([]ModelLoad, 0, len(agg))
	for _, l := range agg {
		if w := window[l.Model]; w.Total() > 0 {
			l.Service = w.Mean()
			l.ServiceP50 = w.P50()
			l.ServiceP99 = w.P99()
		}
		if l.Service <= 0 {
			l.Service = a.profiled[l.Model]
		}
		if l.Service <= 0 {
			l.Service = DefaultServiceTime
		}
		loads = append(loads, *l)
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].Model < loads[j].Model })
	return loads
}

// rebudget re-divides the fleet-global storage budget evenly across the
// current in-process replicas.
func (a *Autoscaler) rebudget() {
	if a.cfg.StorageSlots == 0 {
		return
	}
	reps := a.cfg.Router.Replicas()
	n := 0
	for _, rep := range reps {
		if rep.eng != nil {
			n++
		}
	}
	if n == 0 {
		return
	}
	for _, rep := range reps {
		if rep.eng != nil {
			rep.eng.SetStorageBudget(a.cfg.StorageSlots / n)
		}
	}
}

// victim picks the replica a scale-down removes: the least-loaded
// in-process replica (remote replicas cannot be drained).
func victim(reps []*Replica) *Replica {
	var v *Replica
	for _, rep := range reps {
		if rep.eng == nil {
			continue
		}
		if v == nil || rep.load.Value() < v.load.Value() {
			v = rep
		}
	}
	return v
}

// PlanReplicas sizes the fleet for a measured load: the smallest replica
// count in [min, max] whose M/M/c expected queueing delay meets the target
// for every model. Each replica is one server; a model's wait is computed
// on the aggregate queue (all models share the fleet, so the shared-queue
// delay plus the model's own service time is what its clients see).
// Backlogged requests count as extra load to drain. Returns the chosen
// count with the modelled wait and utilization at that count.
func PlanReplicas(loads []ModelLoad, min, max int, target time.Duration) (replicas int, wait time.Duration, util float64) {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	var lambda, offered float64
	for _, l := range loads {
		rate := l.Arrival + float64(l.Backlog) // backlog drains within ~1s
		lambda += rate
		offered += rate * l.Service.Seconds()
	}
	if lambda <= 0 {
		return min, 0, 0
	}
	service := offered / lambda // load-weighted mean service time

	c := min
	for ; c < max; c++ {
		if w, ok := erlangCWait(lambda, service, c); ok && w <= target {
			break
		}
	}
	w, ok := erlangCWait(lambda, service, c)
	if !ok {
		w = time.Duration(math.MaxInt64) // saturated even at max
	}
	return c, w, offered / float64(c)
}

// erlangCWait is the M/M/c expected queueing delay W_q for arrival rate
// lambda (per second), mean service time service (per request), and c
// servers. ok is false when the queue is unstable (offered load >= c).
func erlangCWait(lambda, service float64, c int) (time.Duration, bool) {
	if lambda <= 0 || service <= 0 {
		return 0, true
	}
	a := lambda * service // offered load, in server-equivalents (erlangs)
	if a >= float64(c) {
		return 0, false
	}
	// Erlang B by the stable recurrence, then convert to Erlang C.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	pWait := b / (1 - rho*(1-b))
	wq := pWait * service / (float64(c) - a)
	return time.Duration(wq * float64(time.Second)), true
}
