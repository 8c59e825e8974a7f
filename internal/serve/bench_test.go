package serve

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"privinf/internal/delphi"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/transport"
)

// BenchmarkSessionConnect measures per-session connect cost (wire
// handshake, HE keygen, base OTs, server endpoint construction) against a
// live engine, at 1 and 8 concurrent sessions. The engine encodes the model
// once at construction, so the reported ns/session should stay flat as the
// session count grows — connect cost no longer contains per-session weight
// encoding.
func BenchmarkSessionConnect(b *testing.B) {
	model := testModel(b, 5)
	for _, sessions := range []int{1, 8} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			_, ln := pipeEngine(b, testConfig(b, model))

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clients := make([]*Client, sessions)
				var wg sync.WaitGroup
				errs := make(chan error, sessions)
				for k := 0; k < sessions; k++ {
					wg.Add(1)
					go func(k int) {
						defer wg.Done()
						var err error
						if clients[k], err = dialPipe(ln); err != nil {
							errs <- err
						}
					}(k)
				}
				wg.Wait()
				select {
				case err := <-errs:
					b.Fatal(err)
				default:
				}
				b.StopTimer()
				for _, c := range clients {
					c.Close()
				}
				b.StartTimer()
			}
			perSession := float64(b.Elapsed().Nanoseconds()) / float64(b.N*sessions)
			b.ReportMetric(perSession, "ns/session")
		})
	}
}

// BenchmarkSessionResume measures the connect-latency tiers the session
// preamble subsystem creates. "cold" is a full connect: wire handshake, HE
// keygen, and kappa public-key base OTs on P-256. "resumed" presents the
// ticket from a prior full handshake: both sides expand cached OT seeds
// locally, so the base OTs — and their two network flights — disappear,
// and the client reuses its preamble's HE key pair instead of
// running keygen. The acceptance bar is resumed ≥ 5× faster than cold.
func BenchmarkSessionResume(b *testing.B) {
	model := testModel(b, 5)
	_, ln := pipeEngine(b, testConfig(b, model))
	connect := func(b *testing.B, p *Preamble) *Client { return connectPreamble(b, ln, "", p) }

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := connect(b, nil)
			b.StopTimer()
			c.Close()
			b.StartTimer()
		}
	})

	b.Run("resumed", func(b *testing.B) {
		p := NewPreamble()
		connect(b, p).Close() // full handshake: ticket + artifacts cached
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := connect(b, p)
			b.StopTimer()
			if !c.Resumed() {
				b.Fatal("reconnect did not resume")
			}
			c.Close()
			b.StartTimer()
		}
	})
}

// BenchmarkRegistryHitVsColdBuild measures the two registry outcomes a
// handshake can hit: a resident artifact (pointer lookup + LRU bump) vs a
// cold build (full weight encode + circuit build after eviction or first
// use). The gap is what the byte budget trades away per eviction.
func BenchmarkRegistryHitVsColdBuild(b *testing.B) {
	model := testModel(b, 6)

	b.Run("hit", func(b *testing.B) {
		reg := NewRegistry(0)
		if err := reg.Register("m", model); err != nil {
			b.Fatal(err)
		}
		if _, err := reg.Get("m"); err != nil { // warm
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Get("m"); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("coldbuild", func(b *testing.B) {
		reg := NewRegistry(0)
		if err := reg.Register("m", model); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Get("m"); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			// Evict by shrinking: drop the artifact the way the budget
			// would, so the next Get rebuilds.
			reg.mu.Lock()
			e := reg.entries["m"]
			if e.elem != nil {
				reg.lru.Remove(e.elem)
				e.elem, e.art = nil, nil
				reg.bytes -= e.size
				e.size = 0
			}
			reg.mu.Unlock()
			b.StartTimer()
		}
	})
}

// BenchmarkArtifactLoadVsBuild measures the restart-cost lever the artifact
// store exists for, on the standard demo CNN: building the shared artifact
// from scratch (one NTT per weight plaintext plus circuit construction) vs
// reloading the serialized artifact from disk (checksum + linear decode).
// The ratio is what every server restart — and every spill/reload eviction
// cycle — saves per model.
func BenchmarkArtifactLoadVsBuild(b *testing.B) {
	model, err := nn.DemoCNN(field.New(field.P20), 7)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("build", func(b *testing.B) {
		// One untimed warmup so a single-iteration run (CI's bench smoke)
		// measures steady-state build cost, not scratch-pool and NTT-table
		// first-touch.
		if _, err := buildArtifact(model); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := buildArtifact(model); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("load", func(b *testing.B) {
		store, err := NewArtifactStoreBudget(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		art, err := buildArtifact(model)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Save("m", art); err != nil {
			b.Fatal(err)
		}
		if _, err := store.Load("m", model); err != nil { // untimed warmup
			b.Fatal(err)
		}
		// Settle the heap so a GC cycle provoked by the setup's builds does
		// not land inside a short timed run (a load is ~10 GC-free µs of
		// actual work per 100 µs of wall time at steady state).
		runtime.GC()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.Load("m", model); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRegistrySpillReload measures a full eviction round trip under a
// one-artifact budget — exactly the churn TestRegistryReloadUnderEvictionChurn
// exercises — with and without a disk store. Each iteration alternates two
// models, so every Get is a miss: memory-only pays a rebuild, store-backed
// pays a disk reload.
func BenchmarkRegistrySpillReload(b *testing.B) {
	modelA := testModel(b, 8)
	modelB := testModel(b, 9)
	artA, err := buildArtifact(modelA)
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, store *ArtifactStore) {
		reg := NewRegistryWithStore(int64(artA.SizeBytes()), store)
		for name, m := range map[string]*nn.Lowered{"a": modelA, "b": modelB} {
			if err := reg.Register(name, m); err != nil {
				b.Fatal(err)
			}
		}
		// Warm both entries (and, with a store, both files) once; Flush so
		// the background write-throughs land before the timed loop.
		for _, name := range []string{"a", "b"} {
			if _, err := reg.Get(name); err != nil {
				b.Fatal(err)
			}
		}
		reg.Flush()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := "a"
			if i%2 == 1 {
				name = "b"
			}
			if _, err := reg.Get(name); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("store=none", func(b *testing.B) { run(b, nil) })
	b.Run("store=disk", func(b *testing.B) {
		store, err := NewArtifactStoreBudget(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, store)
	})
}

// BenchmarkSessionResumeColdProcess measures the durable-session tier: a
// full restart of both parties per iteration — new engine over the same
// TicketDir (ticket reload included), preamble reloaded from its store —
// followed by the reconnect, which must still take the resumed fast path
// (no base OTs, no BFV keygen). This is the cost of
// "the service restarted and a repeat client came back": engine
// construction dominates, and the delta against BenchmarkSessionResume's
// in-process resumed tier is what persistence itself costs.
func BenchmarkSessionResumeColdProcess(b *testing.B) {
	model := testModel(b, 5)
	cfg := Config{
		Registry:    testRegistry(b, model),
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: len(model.Linear),
		TicketDir:   b.TempDir(),
	}
	ps, err := NewPreambleStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}

	// Seed the durable state: one cold handshake, preamble saved, engine
	// closed (flushing the ticket write-through).
	eng, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ln := transport.NewPipeListener()
	go eng.Serve(ln)
	p := NewPreamble()
	connectPreamble(b, ln, "", p).Close()
	if err := ps.Save("bench-client", p); err != nil {
		b.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A restarted process starts from an empty registry.
		cfg.Registry = NewRegistry(0)
		if err := cfg.Registry.Register("default", model); err != nil {
			b.Fatal(err)
		}
		eng, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ln := transport.NewPipeListener()
		go eng.Serve(ln)
		p2, err := ps.Load("bench-client")
		if err != nil {
			b.Fatal(err)
		}
		c := connectPreamble(b, ln, "", p2)
		b.StopTimer()
		if !c.Resumed() {
			b.Fatal("post-restart connect did not resume")
		}
		c.Close()
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
		cfg.Registry.Close()
		b.StartTimer()
	}
}
