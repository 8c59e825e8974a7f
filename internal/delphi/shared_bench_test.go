package delphi

import (
	"testing"

	"privinf/internal/bfv"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/transport"
)

// BenchmarkSessionSetup measures the per-session model cost of bringing up
// a server endpoint. "per-session-encode" is what every session used to
// pay: re-encoding all weight matrices into NTT-domain plaintexts and
// rebuilding the ReLU circuits. "shared-artifact" is what the 2nd..Nth
// session of a shared model pays now: a constant-size constructor on a
// pre-built artifact. The ≥5× gap (in practice orders of magnitude) is the
// headline of the shared model-artifact cache.
func BenchmarkSessionSetup(b *testing.B) {
	model, err := nn.DemoMLP(field.New(field.P20), 5)
	if err != nil {
		b.Fatal(err)
	}
	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Variant: ClientGarbler, HEParams: params}
	_, sc := transport.Pipe()

	b.Run("per-session-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := newTestServer(sc, cfg, model, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-artifact", func(b *testing.B) {
		shared, err := NewSharedModel(params, model)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewServerShared(sc, cfg, shared, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClientSharedSetup measures the client-side per-session model
// cost the ClientShared artifact removes. "per-session-build" is what every
// session used to pay: laying out the matvec plans and rebuilding the ReLU
// circuits in NewClient. "shared-artifact" is what the 2nd..Nth session of
// a repeat client pays: a constant-size constructor on the cached artifact.
func BenchmarkClientSharedSetup(b *testing.B) {
	model, err := nn.DemoCNN(field.New(field.P20), 5)
	if err != nil {
		b.Fatal(err)
	}
	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		b.Fatal(err)
	}
	meta := MetaOf(model)
	cfg := Config{Variant: ClientGarbler, HEParams: params}
	cc, _ := transport.Pipe()

	b.Run("per-session-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewClient(cc, cfg, meta, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-artifact", func(b *testing.B) {
		cs, err := NewClientShared(params, meta)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewClientWithShared(cc, cfg, cs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSharedModelBuild is the one-time artifact construction cost the
// sharing amortizes (parallel weight encode + circuit build).
func BenchmarkSharedModelBuild(b *testing.B) {
	model, err := nn.DemoMLP(field.New(field.P20), 5)
	if err != nil {
		b.Fatal(err)
	}
	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSharedModel(params, model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflinePhase runs full offline rounds (HE share generation,
// garbling, OTs) through an established pair, per variant. allocs/op tracks
// the steady-state allocation rate the bfv scratch pooling targets.
func BenchmarkOfflinePhase(b *testing.B) {
	for _, variant := range []Variant{ServerGarbler, ClientGarbler} {
		b.Run(variant.String(), func(b *testing.B) {
			model, err := nn.DemoMLP(field.New(field.P20), 5)
			if err != nil {
				b.Fatal(err)
			}
			params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Variant: variant, HEParams: params, LPHEWorkers: len(model.Linear)}
			cc, sc := transport.Pipe()
			entropy := LockedEntropy(newSeeded(7))
			server, err := newTestServer(sc, cfg, model, entropy)
			if err != nil {
				b.Fatal(err)
			}
			client, err := NewClient(cc, cfg, MetaOf(model), entropy)
			if err != nil {
				b.Fatal(err)
			}
			errCh := make(chan error, 1)
			go func() { errCh <- server.Setup() }()
			if err := client.Setup(); err != nil {
				b.Fatal(err)
			}
			if err := <-errCh; err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				go func() {
					_, err := server.RunOffline()
					errCh <- err
				}()
				if _, err := client.RunOffline(); err != nil {
					b.Fatal(err)
				}
				if err := <-errCh; err != nil {
					b.Fatal(err)
				}
				// Drop the buffered pre-computes so b.N rounds don't
				// accumulate garbled-circuit storage; the buffer is not
				// what this benchmark measures.
				server.pres = server.pres[:0]
				client.pres = client.pres[:0]
			}
		})
	}
}
