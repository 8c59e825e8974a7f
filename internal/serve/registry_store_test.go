package serve

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// storeBackedRegistry builds a registry over a fresh store with the named
// models registered lazily.
func storeBackedRegistry(t *testing.T, dir string, budget int64, names map[string]int64) *Registry {
	t.Helper()
	st, err := NewArtifactStoreBudget(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistryWithStore(budget, st)
	// Join the background spill writer before the test's TempDir is removed
	// (cleanups run last-registered first, and dir was created before this).
	t.Cleanup(reg.Close)
	for name, seed := range names {
		if err := reg.Register(name, testModel(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestRegistrySpillReloadCycle pins the disk-backed eviction semantics:
// a build writes through to the store, eviction under budget pressure only
// drops memory (the disk copy is already current), and re-requesting the
// evicted model reloads from disk instead of re-encoding.
func TestRegistrySpillReloadCycle(t *testing.T) {
	size := mlpArtifactSize(t)
	reg := storeBackedRegistry(t, t.TempDir(), size, map[string]int64{"a": 120, "b": 121})

	builtA, err := reg.Get("a") // miss: build, write-through queued in background
	if err != nil {
		t.Fatal(err)
	}
	reg.Flush() // write-through is async; barrier before trusting the disk
	if !reg.Store().Has("a") {
		t.Fatal("built artifact was not written through to the store")
	}
	if _, err := reg.Get("b"); err != nil { // evicts a (disk copy current)
		t.Fatal(err)
	}
	reg.Flush()
	reloadedA, err := reg.Get("a") // must reload, not rebuild
	if err != nil {
		t.Fatal(err)
	}
	if reloadedA == builtA {
		t.Fatal("expected a fresh artifact value after eviction")
	}
	if reloadedA.SizeBytes() != builtA.SizeBytes() {
		t.Fatalf("reloaded artifact reports %d bytes, built one %d", reloadedA.SizeBytes(), builtA.SizeBytes())
	}

	st := reg.Stats()
	if st.Reloads != 1 {
		t.Fatalf("registry reloads = %d, want 1 (eviction must reload, not re-encode)", st.Reloads)
	}
	if st.Spills != 2 { // one write-through per model build
		t.Fatalf("registry spills = %d, want 2", st.Spills)
	}
	if st.LoadErrors != 0 || st.SpillErrors != 0 {
		t.Fatalf("unexpected store errors: %+v", st)
	}
	a := modelStats(t, st, "a")
	if a.Reloads != 1 || a.Spills != 1 || a.Evictions != 1 || !a.OnDisk {
		t.Fatalf("a counters: %+v, want reloads=1 spills=1 evictions=1 on-disk", a)
	}
}

// TestRegistryRestartLoadsFromStore is the restart scenario the store
// exists for: a second registry (a new process, as far as the disk is
// concerned) over the same directory serves its first request from disk —
// O(load), no encode.
func TestRegistryRestartLoadsFromStore(t *testing.T) {
	dir := t.TempDir()
	first := storeBackedRegistry(t, dir, 0, map[string]int64{"m": 122})
	builtArt, err := first.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	first.Flush() // the "process" must finish its background write before "exiting"

	second := storeBackedRegistry(t, dir, 0, map[string]int64{"m": 122})
	art, err := second.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	st := second.Stats()
	if st.Reloads != 1 || st.Misses != 1 {
		t.Fatalf("restart Get: reloads=%d misses=%d, want 1/1", st.Reloads, st.Misses)
	}
	if st.Spills != 0 {
		t.Fatalf("restart Get spilled %d times; the disk copy was already current", st.Spills)
	}
	if art.SizeBytes() != builtArt.SizeBytes() {
		t.Fatalf("restarted artifact reports %d bytes, original %d", art.SizeBytes(), builtArt.SizeBytes())
	}
}

// TestRegistryFallsBackOnDamagedStore: every damage class — truncation,
// flipped checksum byte, wrong format version — falls back to a clean
// rebuild (no panic, no error surfaced to the caller), increments
// LoadErrors, and the write-through repairs the file so the next cold
// registry reloads it.
func TestRegistryFallsBackOnDamagedStore(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		"truncated":        func(b []byte) []byte { return b[:len(b)/3] },
		"checksum flipped": func(b []byte) []byte { b[17] ^= 0x01; return b },
		"wrong version":    func(b []byte) []byte { b[4] = storeFormatVersion + 3; return b },
		// An intact frame around a payload whose codec header says 2, the
		// version whose plans took one upload a layer: its plaintexts
		// pack the weights for other chunks, and must not be served.
		"codec v2 header": func(b []byte) []byte {
			payload := b[storeHeaderBytes:]
			binary.LittleEndian.PutUint64(payload, 2)
			binary.LittleEndian.PutUint32(b[16:], storeChecksum(payload))
			return b
		},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seeder := storeBackedRegistry(t, dir, 0, map[string]int64{"m": 123})
			if _, err := seeder.Get("m"); err != nil { // populate the file
				t.Fatal(err)
			}
			seeder.Flush()
			rewriteFile(t, seeder.Store().Path("m"), damage)

			reg := storeBackedRegistry(t, dir, 0, map[string]int64{"m": 123})
			art, err := reg.Get("m")
			if err != nil {
				t.Fatalf("Get over a %s store file failed instead of rebuilding: %v", name, err)
			}
			if art == nil || art.SizeBytes() == 0 {
				t.Fatal("fallback build produced a broken artifact")
			}
			reg.Flush() // the repairing write-through runs in the background
			st := reg.Stats()
			if st.LoadErrors != 1 {
				t.Fatalf("LoadErrors = %d, want 1", st.LoadErrors)
			}
			if st.Reloads != 0 {
				t.Fatalf("Reloads = %d for an unusable file, want 0", st.Reloads)
			}
			if st.Spills != 1 {
				t.Fatalf("Spills = %d, want 1 (rebuild must repair the file)", st.Spills)
			}
			if m := modelStats(t, reg.Stats(), "m"); m.LoadErrors != 1 || !m.OnDisk {
				t.Fatalf("per-model counters after fallback: %+v", m)
			}

			// The write-through repaired the damage: a third cold registry
			// reloads cleanly.
			again := storeBackedRegistry(t, dir, 0, map[string]int64{"m": 123})
			if _, err := again.Get("m"); err != nil {
				t.Fatal(err)
			}
			if st := again.Stats(); st.Reloads != 1 || st.LoadErrors != 0 {
				t.Fatalf("post-repair Get: reloads=%d loadErrors=%d, want 1/0", st.Reloads, st.LoadErrors)
			}
		})
	}
}

// TestRegistryRejectsStaleWeightsSameArchitecture: the reseed/retrain
// hazard — a stored artifact for a model with identical architecture
// (dims, shifts, field all equal) but different weights must NOT load; the
// registry counts the stale file as a load error, rebuilds from the new
// weights, and the write-through replaces the file.
func TestRegistryRejectsStaleWeightsSameArchitecture(t *testing.T) {
	dir := t.TempDir()
	old := storeBackedRegistry(t, dir, 0, map[string]int64{"m": 131})
	if _, err := old.Get("m"); err != nil { // persist seed-131 weights
		t.Fatal(err)
	}
	old.Flush()

	// Same architecture, different seed ⇒ different weights, equal metadata.
	reg := storeBackedRegistry(t, dir, 0, map[string]int64{"m": 132})
	art, err := reg.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.Reloads != 0 {
		t.Fatal("registry served stale weights from another model's artifact")
	}
	if st.LoadErrors != 1 {
		t.Fatalf("LoadErrors = %d, want 1 (stale weight digest)", st.LoadErrors)
	}
	// The artifact in use must carry the NEW model's weights.
	if art.Model() == nil || art.Model() != reg.entries["m"].model {
		t.Fatal("rebuilt artifact not attached to the re-registered model")
	}
}

// TestRegistryEmptyStoreDirFallsBack: a store with no files behaves like a
// plain cache miss — build, no load error — and leaves the artifact on
// disk for next time.
func TestRegistryEmptyStoreDirFallsBack(t *testing.T) {
	reg := storeBackedRegistry(t, t.TempDir(), 0, map[string]int64{"m": 124})
	if _, err := reg.Get("m"); err != nil {
		t.Fatal(err)
	}
	reg.Flush()
	st := reg.Stats()
	if st.LoadErrors != 0 {
		t.Fatalf("an absent file is a miss, not a load error; LoadErrors = %d", st.LoadErrors)
	}
	if st.Reloads != 0 || st.Spills != 1 || st.Misses != 1 {
		t.Fatalf("empty-dir Get: reloads=%d spills=%d misses=%d, want 0/1/1", st.Reloads, st.Spills, st.Misses)
	}
}

// TestRegistrySingleFlightReload: N concurrent Gets on a cold, on-disk
// artifact share one disk load — reloads and misses stay at exactly 1, the
// other N-1 requests wait and hit. Run with -race this doubles as the
// single-flight concurrency test.
func TestRegistrySingleFlightReload(t *testing.T) {
	dir := t.TempDir()
	seeder := storeBackedRegistry(t, dir, 0, map[string]int64{"m": 125})
	if _, err := seeder.Get("m"); err != nil {
		t.Fatal(err)
	}
	seeder.Flush()

	reg := storeBackedRegistry(t, dir, 0, map[string]int64{"m": 125})
	const goroutines = 16
	arts := make([]any, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			art, err := reg.Get("m")
			if err != nil {
				errs <- err
				return
			}
			arts[i] = art
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < goroutines; i++ {
		if arts[i] != arts[0] {
			t.Fatal("concurrent Gets returned different artifacts")
		}
	}
	st := reg.Stats()
	if st.Reloads != 1 || st.Misses != 1 {
		t.Fatalf("single-flight: reloads=%d misses=%d, want exactly 1/1", st.Reloads, st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, goroutines-1)
	}
	if st.LoadErrors != 0 {
		t.Fatalf("LoadErrors = %d, want 0", st.LoadErrors)
	}
}

// TestRegistryReloadUnderEvictionChurn: concurrent Gets across two models
// under a one-artifact budget force continuous evict/reload cycles against
// the store. Run with -race. Every Get must return a usable artifact for
// the right model, no store operation may fail, and by the end the disk —
// not the encoder — must be serving the churn (reloads observed, and far
// fewer builds than requests).
func TestRegistryReloadUnderEvictionChurn(t *testing.T) {
	size := mlpArtifactSize(t)
	dir := t.TempDir()
	models := map[string]int64{"a": 126, "b": 127}
	reg := storeBackedRegistry(t, dir, size, models)

	// Warm both entries and let the background write-throughs land, so the
	// churn below measures the steady state (every miss reloads from disk).
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Get(name); err != nil {
			t.Fatal(err)
		}
	}
	reg.Flush()

	const goroutines = 8
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				name := "a"
				if (i+k)%2 == 1 {
					name = "b"
				}
				art, err := reg.Get(name)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d (%s): %w", i, k, name, err)
					return
				}
				if art == nil || art.SizeBytes() == 0 {
					errs <- fmt.Errorf("goroutine %d iter %d (%s): broken artifact", i, k, name)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	reg.Flush()
	st := reg.Stats()
	if st.Hits+st.Misses != goroutines*iters+2 { // +2 warm-up lookups
		t.Fatalf("lookups don't add up: hits=%d misses=%d, want %d total", st.Hits, st.Misses, goroutines*iters+2)
	}
	if st.LoadErrors != 0 || st.SpillErrors != 0 {
		t.Fatalf("store errors under churn: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatal("a one-artifact budget across two hot models should have evicted")
	}
	if st.Reloads == 0 {
		t.Fatal("eviction churn over a store should reload from disk, not only rebuild")
	}
	// Each model encodes at most twice (its first build, plus at most one
	// lost race where an eviction beat the write-through's visibility);
	// everything after comes from disk. Without the store this churn would
	// re-encode on every miss.
	if builds := st.Misses - st.Reloads; builds > 4 {
		t.Fatalf("%d builds under churn; the store should absorb re-resolves (misses=%d reloads=%d)",
			builds, st.Misses, st.Reloads)
	}
}

// TestRegistryBackgroundSpill pins the async write-through semantics: Get
// returns the built artifact without waiting on the disk (the miss path
// pays encode only), the spill lands on the background writer, and Flush
// is the barrier after which the file, the counters, and OnDisk are all
// current.
func TestRegistryBackgroundSpill(t *testing.T) {
	reg := storeBackedRegistry(t, t.TempDir(), 0, map[string]int64{"m": 133})
	art, err := reg.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if art == nil || art.SizeBytes() == 0 {
		t.Fatal("broken artifact")
	}
	reg.Flush()
	if !reg.Store().Has("m") {
		t.Fatal("background write-through never landed")
	}
	st := reg.Stats()
	if st.Spills != 1 || st.SpillErrors != 0 {
		t.Fatalf("spills=%d spillErrors=%d after Flush, want 1/0", st.Spills, st.SpillErrors)
	}
	if m := modelStats(t, st, "m"); !m.OnDisk || m.Spills != 1 {
		t.Fatalf("per-model counters after Flush: %+v", m)
	}
	// Flush with nothing pending returns immediately (no deadlock).
	reg.Flush()
}

// TestRegistryGetDoesNotHoldLockDuringResolve is the lock-scope regression
// test: while one model's cold resolve is in flight (blocked inside the
// resolve hook, which runs where the build runs — outside the lock), hits
// on another model and registry snapshots must proceed. If Get ever held
// the registry lock across a build again, this test would time out.
func TestRegistryGetDoesNotHoldLockDuringResolve(t *testing.T) {
	reg := registryWith(t, 0, map[string]int64{"cold": 128, "hot": 129})
	if _, err := reg.Get("hot"); err != nil { // make hot resident
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	reg.resolveHook = func(name string) {
		if name == "cold" {
			close(entered)
			<-release
		}
	}
	defer close(release)

	coldDone := make(chan error, 1)
	go func() {
		_, err := reg.Get("cold")
		coldDone <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("cold resolve never started")
	}

	// The cold resolve is parked outside the lock. A hit on the other model
	// and a stats snapshot must both complete promptly.
	hitDone := make(chan error, 1)
	go func() {
		_, err := reg.Get("hot")
		reg.Stats()
		hitDone <- err
	}()
	select {
	case err := <-hitDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hit on a resident model blocked behind another model's cold resolve")
	}

	release <- struct{}{} // unblock (the deferred close handles re-entry)
	if err := <-coldDone; err != nil {
		t.Fatal(err)
	}
}

// TestRegistrySpillErrorDegradesToMemoryOnly: when the store directory
// stops being writable, builds still serve from memory and the failure is
// counted, not surfaced.
func TestRegistrySpillErrorDegradesToMemoryOnly(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("directory write permissions are not enforced for root")
	}
	dir := t.TempDir()
	reg := storeBackedRegistry(t, dir, 0, map[string]int64{"m": 130})
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)

	art, err := reg.Get("m")
	if err != nil {
		t.Fatalf("Get must not fail on a read-only store: %v", err)
	}
	if art == nil {
		t.Fatal("nil artifact")
	}
	reg.Flush() // the failing write happens in the background
	st := reg.Stats()
	if st.SpillErrors != 1 {
		t.Fatalf("SpillErrors = %d, want 1", st.SpillErrors)
	}
	if m := modelStats(t, st, "m"); m.OnDisk {
		t.Fatal("artifact reported on-disk after a failed spill")
	}
}
