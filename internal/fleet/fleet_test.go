package fleet

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"privinf/internal/cost"
	"privinf/internal/delphi"
	"privinf/internal/device"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

func testModel(t testing.TB, seed int64) *nn.Lowered {
	t.Helper()
	model, err := nn.DemoMLP(field.New(field.P20), seed)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// newEngine is one replica serving model under the name "default" from a
// registry of its own, built now and closed with the test.
func newEngine(t testing.TB, model *nn.Lowered) *serve.Engine {
	t.Helper()
	reg := serve.NewRegistry(0)
	t.Cleanup(reg.Close)
	if err := reg.Register("default", model); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("default"); err != nil {
		t.Fatal(err)
	}
	eng, err := serve.New(serve.Config{
		Registry:     reg,
		Variant:      delphi.ClientGarbler,
		LPHEWorkers:  len(model.Linear),
		SetupWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testInput(model *nn.Lowered, salt int) []uint64 {
	x := make([]uint64, model.InputLen())
	for j := range x {
		x[j] = uint64((j*3 + salt) % 13)
	}
	return x
}

// startFleet builds a router over n fresh in-process replicas of one model
// and returns its front pipe listener.
func startFleet(t testing.TB, model *nn.Lowered, n int) (*Router, *transport.PipeListener) {
	t.Helper()
	r := NewRouter(Config{})
	for i := 0; i < n; i++ {
		if _, err := r.AddEngine(newEngine(t, model)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { r.Close() })
	ln := r.ServePipe()
	t.Cleanup(func() { ln.Close() })
	return r, ln
}

func dialFleet(t testing.TB, ln *transport.PipeListener, opts ...serve.Option) *serve.Client {
	t.Helper()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := serve.Connect(conn, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRouterRoutesAndVerifies is the basic proxy guarantee: sessions
// through the router produce outputs bit-exact with plaintext inference,
// concurrently, across a multi-replica fleet.
func TestRouterRoutesAndVerifies(t *testing.T) {
	model := testModel(t, 51)
	r, ln := startFleet(t, model, 2)

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialFleet(t, ln)
			defer c.Close()
			x := testInput(model, i)
			out, _, _, err := c.Infer(x)
			if err != nil {
				errs <- err
				return
			}
			if want := model.Forward(x); !reflect.DeepEqual(out, want) {
				errs <- errors.New("output diverged from plaintext inference")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := r.Stats(); st.Connects != clients || st.NoBackend != 0 {
		t.Errorf("router stats %+v, want %d connects and no rejects", st, clients)
	}
}

// TestRouterNoBackend: a fleet with no live replicas answers connects with
// the typed no_backend rejection.
func TestRouterNoBackend(t *testing.T) {
	r := NewRouter(Config{})
	defer r.Close()
	ln := r.ServePipe()
	defer ln.Close()

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	_, err = serve.Connect(conn)
	if !errors.Is(err, serve.ErrNoBackend) {
		t.Fatalf("connect with no replicas: %v, want ErrNoBackend", err)
	}
}

// TestRouterRetriesDeadReplica: a replica that dies mid-handshake (the
// transport drops before the welcome) is retried transparently on another
// replica — here the sticky route points at the dead backend and the
// session still resumes on the live replica that holds its ticket.
func TestRouterRetriesDeadReplica(t *testing.T) {
	model := testModel(t, 52)
	r, ln := startFleet(t, model, 1)

	// A TCP backend that accepts and immediately hangs up: every handshake
	// against it dies before the welcome.
	deadLn, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer deadLn.Close()
	go func() {
		for {
			c, err := deadLn.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	dead, err := r.AddAddr(deadLn.Addr())
	if err != nil {
		t.Fatal(err)
	}

	p := serve.NewPreamble()
	cold := dialFleet(t, ln, serve.WithPreamble(p))
	x := testInput(model, 1)
	coldOut, _, _, err := cold.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	cold.Close()

	// Point the sticky route at the dead replica: the reconnect must retry
	// past it and still resume — the live replica is the ticket's issuer.
	r.mu.Lock()
	if len(r.tickets) != 1 {
		r.mu.Unlock()
		t.Fatalf("router learned %d tickets, want 1", len(r.tickets))
	}
	for k := range r.tickets {
		r.tickets[k] = dead
	}
	r.mu.Unlock()

	c := dialFleet(t, ln, serve.WithPreamble(p))
	defer c.Close()
	if !c.Resumed() {
		t.Error("session did not resume on the live replica after the dead one was retried")
	}
	out, _, _, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, coldOut) {
		t.Error("output after retry diverged from the original session's")
	}
	if st := r.Stats(); st.Retries == 0 {
		t.Errorf("router stats %+v, want at least one retry", st)
	}
}

// TestRouterTicketFallbackAfterScaleDown: a ticket sticky to a removed
// replica falls back to a clean full handshake (base OTs, not a resume) on
// a surviving replica, with bit-identical inference output.
func TestRouterTicketFallbackAfterScaleDown(t *testing.T) {
	model := testModel(t, 53)
	r, ln := startFleet(t, model, 2)

	p := serve.NewPreamble()
	cold := dialFleet(t, ln, serve.WithPreamble(p))
	x := testInput(model, 2)
	coldOut, _, _, err := cold.Infer(x)
	if err != nil {
		t.Fatal(err)
	}

	// Find the replica carrying the session and remove it.
	var victim *Replica
	for _, rep := range r.Replicas() {
		if rep.Load() > 0 {
			victim = rep
		}
	}
	if victim == nil {
		t.Fatal("no replica carries the session")
	}
	cold.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Remove(ctx, victim); err != nil {
		t.Fatalf("remove: %v", err)
	}

	c := dialFleet(t, ln, serve.WithPreamble(p))
	defer c.Close()
	if c.Resumed() {
		t.Error("session resumed on a replica that never issued its ticket")
	}
	out, _, _, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, coldOut) {
		t.Error("fallback session's output diverged from the original's")
	}
}

// TestRemoveDropsReplicaLoadSeries: a removed replica's pi_replica_load
// series goes with it, so autoscaler cycles do not pile up series.
func TestRemoveDropsReplicaLoadSeries(t *testing.T) {
	r := NewRouter(Config{})
	t.Cleanup(func() { r.Close() })
	live, err := r.AddAddr("127.0.0.1:1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rep, err := r.AddAddr("127.0.0.1:1")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Remove(context.Background(), rep); err != nil {
			t.Fatal(err)
		}
	}
	var ids []string
	for _, f := range r.met.reg.Gather() {
		if f.Name == metricReplicaLoad {
			for _, s := range f.Samples {
				ids = append(ids, s.Labels[0])
			}
		}
	}
	if want := []string{strconv.Itoa(live.ID)}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("pi_replica_load series for replicas %q, want only the live %q", ids, want)
	}
}

// TestRouterDrainCompletesInflight: scale-down is graceful — a removed
// replica's in-flight session keeps inferring until its client disconnects,
// while new connects land on the surviving replica.
func TestRouterDrainCompletesInflight(t *testing.T) {
	model := testModel(t, 54)
	r, ln := startFleet(t, model, 2)

	c := dialFleet(t, ln)
	var victim *Replica
	for _, rep := range r.Replicas() {
		if rep.Load() > 0 {
			victim = rep
		}
	}
	if victim == nil {
		t.Fatal("no replica carries the session")
	}

	removed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		removed <- r.Remove(ctx, victim)
	}()
	// Wait for the drain to start, then infer on the draining replica.
	deadline := time.Now().Add(5 * time.Second)
	for !victim.Engine().Draining() {
		if time.Now().After(deadline) {
			t.Fatal("replica never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	x := testInput(model, 3)
	out, _, _, err := c.Infer(x)
	if err != nil {
		t.Fatalf("inference during drain: %v", err)
	}
	if want := model.Forward(x); !reflect.DeepEqual(out, want) {
		t.Error("drain-time output diverged from plaintext inference")
	}
	// New sessions must land on the surviving replica.
	c2 := dialFleet(t, ln)
	if _, _, _, err := c2.Infer(testInput(model, 4)); err != nil {
		t.Fatalf("inference on surviving replica: %v", err)
	}
	c2.Close()

	select {
	case err := <-removed:
		t.Fatalf("remove returned before the in-flight session closed: %v", err)
	default:
	}
	c.Close()
	select {
	case err := <-removed:
		if err != nil {
			t.Fatalf("remove after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("remove did not return after the drained session closed")
	}
	if got := len(r.Replicas()); got != 1 {
		t.Errorf("%d replicas after scale-down, want 1", got)
	}
}

// TestPlanReplicas checks the M/M/c sizing: zero load holds the floor,
// rising load adds replicas monotonically, saturation stops at the
// ceiling, and a fixed load yields a stable (oscillation-free) plan.
func TestPlanReplicas(t *testing.T) {
	target := 50 * time.Millisecond
	if c, w, _ := PlanReplicas(nil, 1, 8, target); c != 1 || w != 0 {
		t.Errorf("idle plan: %d replicas wait %v, want 1 replica idle", c, w)
	}

	load := func(lambda float64) []ModelLoad {
		return []ModelLoad{{Model: "m", Arrival: lambda, Service: 100 * time.Millisecond}}
	}
	// Offered load 8 erlangs needs at least 9 servers for stability.
	c, w, util := PlanReplicas(load(80), 1, 16, target)
	if c < 9 || c > 16 {
		t.Fatalf("80/s at 100ms: %d replicas, want at least 9 (stability)", c)
	}
	if w > target {
		t.Errorf("80/s plan wait %v exceeds target %v at %d replicas", w, target, c)
	}
	if util >= 1 {
		t.Errorf("80/s plan utilization %.2f, want < 1", util)
	}
	prev := 0
	for _, lambda := range []float64{5, 20, 40, 80} {
		n, _, _ := PlanReplicas(load(lambda), 1, 16, target)
		if n < prev {
			t.Errorf("plan shrank from %d to %d replicas as load rose to %.0f/s", prev, n, lambda)
		}
		prev = n
	}
	// Saturated past the ceiling: pin at max, report instability.
	if n, _, util := PlanReplicas(load(1000), 1, 4, target); n != 4 || util <= 1 {
		t.Errorf("saturated plan: %d replicas util %.2f, want ceiling 4 over-utilized", n, util)
	}
	// Deterministic: three consecutive plans over the same measurements
	// agree (the no-oscillation property the autoscaler's hysteresis
	// extends to live, noisy measurements).
	first, _, _ := PlanReplicas(load(40), 1, 16, target)
	for i := 0; i < 3; i++ {
		if n, _, _ := PlanReplicas(load(40), 1, 16, target); n != first {
			t.Fatalf("plan oscillated: %d then %d replicas for identical load", first, n)
		}
	}
}

// TestAutoscalerLifecycle drives control periods by hand: measured load
// above the target scales the fleet up; sustained idleness scales it back
// down only after the hysteresis window, draining the victim replica.
func TestAutoscalerLifecycle(t *testing.T) {
	model := testModel(t, 55)
	r, ln := startFleet(t, model, 1)
	a, err := NewAutoscaler(AutoscalerConfig{
		Router:       r,
		Spawn:        func() (*serve.Engine, error) { return newEngine(t, model), nil },
		MinReplicas:  1,
		MaxReplicas:  3,
		TargetWait:   time.Nanosecond, // any load demands more replicas
		Period:       100 * time.Millisecond,
		ShrinkAfter:  2,
		StorageSlots: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Generate measurable load: a few inferences between ticks.
	c := dialFleet(t, ln)
	for i := 0; i < 3; i++ {
		if _, _, _, err := c.Infer(testInput(model, i)); err != nil {
			t.Fatal(err)
		}
	}
	// First tick records baselines (deltas need a previous sample), so
	// load the fleet again before the deciding tick.
	if _, err := a.Tick(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, _, err := c.Infer(testInput(model, i)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := a.Tick(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !d.ScaledUp || len(r.Replicas()) != 2 {
		t.Fatalf("decision %+v with %d replicas, want a scale-up to 2", d, len(r.Replicas()))
	}
	c.Close()

	// Idle: desired falls to MinReplicas, but only after ShrinkAfter
	// consecutive low periods does a replica drain away.
	d, err = a.Tick(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.ScaledDown || len(r.Replicas()) != 2 {
		t.Fatalf("decision %+v after one idle period, want hysteresis to hold at 2 replicas", d)
	}
	d, err = a.Tick(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !d.ScaledDown || len(r.Replicas()) != 1 {
		t.Fatalf("decision %+v with %d replicas, want a scale-down to 1", d, len(r.Replicas()))
	}
	// The fleet still serves after the resize churn.
	c2 := dialFleet(t, ln)
	defer c2.Close()
	if _, _, _, err := c2.Infer(testInput(model, 9)); err != nil {
		t.Fatalf("inference after scale-down: %v", err)
	}
}

// TestAutoscalerColdProfileSizing: before any measurement window exists,
// the autoscaler prices each model at its cost-model profile's analytic
// online latency (AutoscalerConfig.Profiles), so a cold fleet sizes
// against the model actually deployed instead of the generic default.
func TestAutoscalerColdProfileSizing(t *testing.T) {
	model := testModel(t, 57)
	r, _ := startFleet(t, model, 1)
	profile := cost.Scenario{
		Arch:    nn.NewResNet18(nn.TinyImageNet),
		Proto:   cost.ClientGarbler,
		Client:  device.Atom,
		Server:  device.EPYC,
		LinkBps: 1e9,
		LPHE:    true,
	}
	a, err := NewAutoscaler(AutoscalerConfig{
		Router:      r,
		Spawn:       func() (*serve.Engine, error) { return newEngine(t, model), nil },
		MinReplicas: 1,
		MaxReplicas: 8,
		Profiles:    map[string]cost.Scenario{"default": profile},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The first tick has no histogram window (it only records the
	// baseline), so the measured load must carry the profile's latency.
	d, err := a.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(profile.Compute().Online() * float64(time.Second))
	var got time.Duration
	for _, l := range d.Loads {
		if l.Model == "default" {
			got = l.Service
		}
	}
	if got != want {
		t.Fatalf("cold service time %v, want profile online latency %v", got, want)
	}

	// Sizing before the first measurement window reflects the profile: at
	// one inference per second a model this heavy saturates every fleet
	// size, so the planner returns MaxReplicas — where the generic
	// DefaultServiceTime would have kept the fleet at one replica.
	loads := []ModelLoad{{Model: "default", Arrival: 1, Service: got}}
	if n, _, _ := PlanReplicas(loads, 1, 8, DefaultTargetWait); n != 8 {
		t.Fatalf("cold plan sized %d replicas, want 8 (saturated by profile service time)", n)
	}
	loads[0].Service = DefaultServiceTime
	if n, _, _ := PlanReplicas(loads, 1, 8, DefaultTargetWait); n != 1 {
		t.Fatalf("default service time sized %d replicas, want 1", n)
	}
}

// TestAutoscalerIgnoresOtherFleets: an autoscaler sizes its fleet from its
// own replicas' latency histograms. Two routers in one process serve the
// same model name; loading one must leave the idle one's service time on
// its cold estimate, with no measured window.
func TestAutoscalerIgnoresOtherFleets(t *testing.T) {
	model := testModel(t, 59)
	_, busyLn := startFleet(t, model, 1)
	idle, _ := startFleet(t, model, 1)
	a, err := NewAutoscaler(AutoscalerConfig{
		Router: idle,
		Spawn:  func() (*serve.Engine, error) { return newEngine(t, model), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := a.Tick(ctx); err != nil { // baselines
		t.Fatal(err)
	}
	c := dialFleet(t, busyLn)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, _, _, err := c.Infer(testInput(model, i)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := a.Tick(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Loads) != 1 {
		t.Fatalf("loads %+v, want the one served model", d.Loads)
	}
	if l := d.Loads[0]; l.Service != DefaultServiceTime || l.ServiceP50 != 0 || l.ServiceP99 != 0 || l.Arrival != 0 {
		t.Fatalf("idle fleet measured %+v, want the cold default %v and an empty window", l, DefaultServiceTime)
	}
}
