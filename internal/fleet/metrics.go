package fleet

import "privinf/internal/obs"

// Metric names the fleet front tier publishes. The Router owns them: they
// are registered once, in NewRouter, on an obs registry of the router's
// own that is included in the process view; every routing event bumps one
// instrument and Router.Stats reads the same instruments. Names are
// package-level constants registered exactly once (obsreg analyzer).
// Placement tiers mirror the router's three-tier policy; autoscaler
// actions mirror Decision.ScaledUp/ScaledDown.
const (
	metricRouterConnectsTotal   = "pi_router_connects_total"
	metricRouterRetriesTotal    = "pi_router_retries_total"
	metricRouterPlacementsTotal = "pi_router_placements_total"
	metricReplicaLoad           = "pi_replica_load"
	metricFleetReplicas         = "pi_fleet_replicas"
	metricScaleActionsTotal     = "pi_autoscaler_actions_total"
)

// Placement-tier label values (see Router.place): sticky (ticket →
// issuing replica), hashed (rendezvous primary), spill (least-load
// spill off an overloaded primary), fallback (later candidate after a
// failed attempt), no_backend (no live replica could take it).
const (
	tierSticky    = "sticky"
	tierHashed    = "hashed"
	tierSpill     = "spill"
	tierFallback  = "fallback"
	tierNoBackend = "no_backend"
)

// Autoscaler action label values.
const (
	actionUp   = "up"
	actionDown = "down"
)

// routerMetrics are the instruments one Router owns.
type routerMetrics struct {
	// reg also takes the handshake outcomes of openings the router rejects
	// itself (serve.PeekClientHello, serve.RejectNoBackend).
	reg    *obs.Registry
	retire func()

	connects, retries        *obs.Counter
	placements               *obs.CounterVec // by tier
	sticky, spill, noBackend *obs.Counter    // the placements children Stats reads
	repLoad                  *obs.GaugeVec   // by replica
	replicas                 *obs.Gauge
	scale                    *obs.CounterVec // by action; bumped by the router's Autoscaler
}

func newRouterMetrics() *routerMetrics {
	reg := obs.NewRegistry()
	placements := reg.CounterVec(metricRouterPlacementsTotal, "Placement decisions by tier: sticky, hashed, spill, fallback, no_backend.", "tier")
	return &routerMetrics{
		reg:        reg,
		retire:     obs.Default().Include(reg),
		connects:   reg.Counter(metricRouterConnectsTotal, "Inbound connections accepted by the fleet router."),
		retries:    reg.Counter(metricRouterRetriesTotal, "Placement attempts beyond a connection's first (a candidate replica died mid-handshake)."),
		placements: placements,
		sticky:     placements.With(tierSticky),
		spill:      placements.With(tierSpill),
		noBackend:  placements.With(tierNoBackend),
		repLoad:    reg.GaugeVec(metricReplicaLoad, "Live proxied sessions per replica (router-assigned replica ID).", "replica"),
		replicas:   reg.Gauge(metricFleetReplicas, "Replicas currently in the routing set."),
		scale:      reg.CounterVec(metricScaleActionsTotal, "Autoscaler resize actions: up (replica spawned), down (replica drained and removed).", "action"),
	}
}
