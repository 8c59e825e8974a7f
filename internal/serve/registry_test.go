package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"privinf/internal/delphi"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/obs"
	"privinf/internal/transport"
)

// mlpArtifactSize builds one demo-MLP artifact and returns its footprint;
// every demo MLP has the same shape, so this is the unit the budget tests
// count in.
func mlpArtifactSize(t *testing.T) int64 {
	t.Helper()
	model := testModel(t, 90)
	art, err := delphi.NewSharedModel(mustParams(t, model), model)
	if err != nil {
		t.Fatal(err)
	}
	if art.SizeBytes() == 0 {
		t.Fatal("artifact reports zero size")
	}
	return int64(art.SizeBytes())
}

func registryWith(t *testing.T, budget int64, names map[string]int64) *Registry {
	t.Helper()
	reg := NewRegistry(budget)
	t.Cleanup(reg.Close)
	for name, seed := range names {
		if err := reg.Register(name, testModel(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func modelStats(t *testing.T, st RegistryStats, name string) ModelStats {
	t.Helper()
	for _, m := range st.Models {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("model %q missing from registry stats", name)
	return ModelStats{}
}

// TestRegistryLRUEvictionOrder pins the eviction policy: with room for two
// artifacts, touching A before building C makes B — the least recently
// used — the one to go, and the resident footprint never exceeds the
// budget.
func TestRegistryLRUEvictionOrder(t *testing.T) {
	size := mlpArtifactSize(t)
	reg := registryWith(t, 2*size, map[string]int64{"a": 91, "b": 92, "c": 93})

	for _, name := range []string{"a", "b"} {
		if _, err := reg.Get(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Get("a"); err != nil { // hit: A becomes MRU, B is now LRU
		t.Fatal(err)
	}
	if _, err := reg.Get("c"); err != nil { // must evict B, not A
		t.Fatal(err)
	}

	st := reg.Stats()
	if st.BytesResident > st.Budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.BytesResident, st.Budget)
	}
	if a := modelStats(t, st, "a"); !a.Resident || a.Evictions != 0 {
		t.Fatalf("a should be resident and unevicted: %+v", a)
	}
	if b := modelStats(t, st, "b"); b.Resident || b.Evictions != 1 {
		t.Fatalf("b should have been evicted exactly once: %+v", b)
	}
	if c := modelStats(t, st, "c"); !c.Resident {
		t.Fatalf("c should be resident: %+v", c)
	}
	if st.Evictions != 1 || st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("registry totals hits=%d misses=%d evictions=%d, want 1/3/1", st.Hits, st.Misses, st.Evictions)
	}
}

// TestRegistryLazyRebuildAfterEviction: requesting an evicted model
// rebuilds its artifact (a second miss) and serves it; the rebuild itself
// obeys the budget by evicting the then-LRU entry.
func TestRegistryLazyRebuildAfterEviction(t *testing.T) {
	size := mlpArtifactSize(t)
	reg := registryWith(t, size, map[string]int64{"a": 94, "b": 95})

	artA, err := reg.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("b"); err != nil { // evicts a
		t.Fatal(err)
	}
	if a := modelStats(t, reg.Stats(), "a"); a.Resident {
		t.Fatal("a should have been evicted by b's build")
	}

	// A session holding artA is unaffected by the eviction (immutable
	// artifact); a new request rebuilds.
	if artA.SizeBytes() == 0 {
		t.Fatal("evicted artifact corrupted")
	}
	rebuilt, err := reg.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == artA {
		t.Fatal("expected a fresh artifact after eviction, got the evicted pointer")
	}
	st := reg.Stats()
	a := modelStats(t, st, "a")
	if a.Misses != 2 || a.Evictions != 1 || !a.Resident {
		t.Fatalf("a after rebuild: %+v, want misses=2 evictions=1 resident", a)
	}
	if st.BytesResident > st.Budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.BytesResident, st.Budget)
	}
}

// TestRegistryPinnedSurvivesEviction: a pinned artifact is never the LRU
// victim — budget pressure evicts around it, and when nothing else is
// evictable the registry simply stays over budget rather than dropping a
// pinned entry.
func TestRegistryPinnedSurvivesEviction(t *testing.T) {
	size := mlpArtifactSize(t)
	reg := registryWith(t, size, map[string]int64{"pinned": 105, "other": 106})
	if err := reg.Pin("pinned"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Pin("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Pin(unknown) = %v, want ErrUnknownModel", err)
	}

	if _, err := reg.Get("pinned"); err != nil {
		t.Fatal(err)
	}
	// Under a one-artifact budget, building "other" would normally evict
	// the LRU "pinned"; with the pin it must not.
	if _, err := reg.Get("other"); err != nil {
		t.Fatal(err)
	}
	st := reg.Stats()
	if p := modelStats(t, st, "pinned"); !p.Resident || !p.Pinned || p.Evictions != 0 {
		t.Fatalf("pinned model: %+v, want resident, pinned, unevicted", p)
	}
	// "other" is the only evictable entry; with pinned+other over budget it
	// is the one that goes on the NEXT insert pressure. Touch pinned again
	// and rebuild other to exercise the skip path once more.
	if _, err := reg.Get("pinned"); err != nil { // hit, stays resident
		t.Fatal(err)
	}

	// Unpinning restores normal LRU behavior.
	if err := reg.Unpin("pinned"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("other"); err != nil { // may now evict "pinned"
		t.Fatal(err)
	}
	st = reg.Stats()
	if p := modelStats(t, st, "pinned"); p.Pinned {
		t.Fatalf("unpinned model still reports pinned: %+v", p)
	}
	if st.BytesResident > 2*size {
		t.Fatalf("resident %d bytes, want at most two artifacts", st.BytesResident)
	}
}

// TestRegistryCloseRetiresMetrics: Close drains the registry's disk
// writes and takes its counters out of the process view with their final
// counts folded in, so events after Close reach no scrape.
func TestRegistryCloseRetiresMetrics(t *testing.T) {
	const name = "close-probe"
	reg := storeBackedRegistry(t, t.TempDir(), 0, map[string]int64{name: 109})
	if _, err := reg.Get(name); err != nil { // a miss, and a spill queued
		t.Fatal(err)
	}
	events := func(event string) (n float64) {
		for _, f := range obs.Default().Gather() {
			if f.Name != metricRegistryTotal {
				continue
			}
			for _, s := range f.Samples {
				if s.Labels[0] == name && s.Labels[1] == event {
					n += s.Value
				}
			}
		}
		return n
	}
	reg.Close()
	if m := modelStats(t, reg.Stats(), name); m.Spills != 1 || !m.OnDisk {
		t.Fatalf("after Close: %+v, want the write-through flushed", m)
	}
	if events("miss") != 1 || events("spill") != 1 {
		t.Fatalf("process view after Close: miss %v spill %v, want the final counts 1/1", events("miss"), events("spill"))
	}
	if _, err := reg.Get(name); err != nil {
		t.Fatal(err)
	}
	if hits := events("hit"); hits != 0 {
		t.Fatalf("a hit after Close reached the process view (%v): the registry is still mounted", hits)
	}
}

// TestRegistryUnknownModel: lookups of unregistered names fail with the
// typed sentinel.
func TestRegistryUnknownModel(t *testing.T) {
	reg := registryWith(t, 0, map[string]int64{"a": 96})
	if _, err := reg.Get("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Get(unknown) = %v, want ErrUnknownModel", err)
	}
}

// TestEngineServesTwoModelsConcurrently is the multi-model acceptance
// scenario: one engine, one listener, a registry holding the demo CNN and
// the demo MLP, sessions on both models inferring concurrently and
// verifying bit-exact against their own network. Stats must partition per
// model.
func TestEngineServesTwoModelsConcurrently(t *testing.T) {
	mlp := testModel(t, 97)
	cnn, err := nn.DemoCNN(field.New(field.P20), 98)
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]*nn.Lowered{"mlp": mlp, "cnn": cnn}

	reg := NewRegistry(0)
	for name, m := range models {
		if err := reg.Register(name, m); err != nil {
			t.Fatal(err)
		}
	}
	eng, ln := pipeEngine(t, Config{Registry: reg, Variant: delphi.ClientGarbler, LPHEWorkers: 2})

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for name, model := range models {
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(name string, model *nn.Lowered, k int) {
				defer wg.Done()
				c, err := dialPipe(ln, WithModel(name))
				if err != nil {
					errs <- fmt.Errorf("%s/%d connect: %w", name, k, err)
					return
				}
				defer c.Close()
				if c.Model() != name {
					errs <- fmt.Errorf("session asked for %q, welcome says %q", name, c.Model())
					return
				}
				if _, err := inferExact(c, model, k); err != nil {
					errs <- fmt.Errorf("%s/%d infer: %w", name, k, err)
				}
			}(name, model, k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := eng.Stats()
	if st.TotalInferences != 4 {
		t.Errorf("engine served %d inferences, want 4", st.TotalInferences)
	}
	if len(st.Models) != 2 {
		t.Fatalf("stats partition %d models, want 2", len(st.Models))
	}
	for _, name := range []string{"cnn", "mlp"} {
		ms := modelStats(t, RegistryStats{Models: st.Models}, name)
		// Two sessions per model: the first is a miss (lazy build), the
		// second either hits or waited on the first's build and then hit.
		if ms.Misses < 1 || ms.Hits+ms.Misses != 2 {
			t.Errorf("%s registry counters hits=%d misses=%d, want 2 lookups with ≥1 miss", name, ms.Hits, ms.Misses)
		}
		if !ms.Resident || ms.SizeBytes == 0 {
			t.Errorf("%s should be resident with a nonzero footprint", name)
		}
	}
}

// TestEngineEvictionUnderChurn runs 8 concurrent sessions across 2 models
// through one engine whose registry budget holds only a single artifact:
// every cold lookup evicts the other model, sessions already serving from
// an evicted artifact keep verifying (the artifact is immutable), and the
// resident footprint respects the budget throughout. Run with -race this
// is the registry's concurrency acceptance test.
func TestEngineEvictionUnderChurn(t *testing.T) {
	size := mlpArtifactSize(t)
	models := map[string]*nn.Lowered{
		"a": testModel(t, 99),
		"b": testModel(t, 100),
	}
	reg := NewRegistry(size) // room for exactly one resident artifact
	for name, m := range models {
		if err := reg.Register(name, m); err != nil {
			t.Fatal(err)
		}
	}
	eng, ln := pipeEngine(t, Config{Registry: reg, Variant: delphi.ClientGarbler, LPHEWorkers: 2})

	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		name := "a"
		if i%2 == 1 {
			name = "b"
		}
		wg.Add(1)
		go func(name string, i int) {
			defer wg.Done()
			model := models[name]
			c, err := dialPipe(ln, WithModel(name))
			if err != nil {
				errs <- fmt.Errorf("session %d (%s) connect: %w", i, name, err)
				return
			}
			defer c.Close()
			if _, err := inferExact(c, model, i); err != nil {
				errs <- fmt.Errorf("session %d (%s) infer: %w", i, name, err)
			}
		}(name, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := eng.Stats()
	if st.TotalInferences != sessions {
		t.Errorf("engine served %d inferences, want %d", st.TotalInferences, sessions)
	}
	if st.RegistryBytes > st.RegistryBudget {
		t.Errorf("resident %d bytes exceeds budget %d", st.RegistryBytes, st.RegistryBudget)
	}
	if st.RegistryEvictions == 0 {
		t.Error("a one-artifact budget across two models should have evicted at least once")
	}
}

// TestUnknownModelHandshakeRejected: a hello naming an unregistered model
// gets the typed rejection, distinguishable from every other failure with
// errors.Is.
func TestUnknownModelHandshakeRejected(t *testing.T) {
	eng, ln := startEngine(t, testConfig(t, testModel(t, 101)))
	_ = eng
	_, err := Dial(ln.Addr(), WithModel("no-such-model"))
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("Dial(WithModel(unknown)) = %v, want ErrUnknownModel", err)
	}
	var hs *HandshakeError
	if !errors.As(err, &hs) || hs.Code != rejectUnknownModel {
		t.Fatalf("want *HandshakeError with code %q, got %v", rejectUnknownModel, err)
	}
	if errors.Is(err, ErrVersionMismatch) {
		t.Fatal("unknown-model rejection must not match ErrVersionMismatch")
	}

	// The default-model path still works on the same engine.
	c, err := Dial(ln.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Model() != "default" {
		t.Fatalf("default session serves %q, want %q", c.Model(), "default")
	}
}

// TestUnknownModelTouchesNoTicket: a hello naming an unregistered model is
// rejected before the ticket cache sees the name, with or without a valid
// ticket — no ticket is issued, and the peer-chosen name labels no series.
func TestUnknownModelTouchesNoTicket(t *testing.T) {
	eng, ln := pipeEngine(t, testConfig(t, testModel(t, 105)))
	p := NewPreamble()
	connectPreamble(t, ln, "default", p).Close()
	issued := eng.Stats().Tickets.Issued

	for _, opts := range [][]Option{
		{WithModel("ghost-cold")},
		{WithModel("ghost-ticket"), WithPreamble(p)},
	} {
		if _, err := dialPipe(ln, opts...); !errors.Is(err, ErrUnknownModel) {
			t.Fatalf("dial a ghost model = %v, want ErrUnknownModel", err)
		}
	}
	if got := eng.Stats().Tickets.Issued; got != issued {
		t.Errorf("tickets issued %d after ghost hellos, want %d", got, issued)
	}
	for _, f := range eng.met.reg.Gather() {
		for _, s := range f.Samples {
			for _, v := range s.Labels {
				if strings.HasPrefix(v, "ghost") {
					t.Errorf("%s has a series labelled %q", f.Name, v)
				}
			}
		}
	}
}

// TestNoDefaultModelRejected: a multi-model engine with no configured
// default rejects unnamed hellos instead of guessing.
func TestNoDefaultModelRejected(t *testing.T) {
	reg := registryWith(t, 0, map[string]int64{"a": 102, "b": 103})
	_, ln := pipeEngine(t, Config{Registry: reg, Variant: delphi.ClientGarbler, LPHEWorkers: 2})
	if _, err := dialPipe(ln); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unnamed hello to no-default engine = %v, want ErrUnknownModel", err)
	}
}

// TestWireVersionMismatchRejected: a hello speaking the wrong wire version
// gets a typed opReject (code version_mismatch) rather than a generic
// decode failure, and the client-side error maps to ErrVersionMismatch.
func TestWireVersionMismatchRejected(t *testing.T) {
	_, ln := startEngine(t, Config{
		Registry:    testRegistry(t, testModel(t, 104)),
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: 2,
	})

	conn, err := transport.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := sendCtrl(conn, opHello, marshalJSON(helloMsg{Version: wireVersion + 7})); err != nil {
		t.Fatal(err)
	}
	op, body, err := recvCtrl(conn)
	if err != nil {
		t.Fatal(err)
	}
	if op != opReject {
		t.Fatalf("got opcode %d, want opReject", op)
	}
	var rej rejectMsg
	if err := unmarshalJSON(body, &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Code != rejectVersion {
		t.Fatalf("reject code %q, want %q", rej.Code, rejectVersion)
	}

	// The client-side mapping a real (newer/older) client would see.
	hs := &HandshakeError{Code: rej.Code, Message: rej.Message}
	if !errors.Is(hs, ErrVersionMismatch) {
		t.Fatal("version rejection must match ErrVersionMismatch")
	}
	if errors.Is(hs, ErrUnknownModel) {
		t.Fatal("version rejection must not match ErrUnknownModel")
	}
}
