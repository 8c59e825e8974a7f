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

// benchPair brings up a set-up client and server for model over a pipe.
func benchPair(b *testing.B, variant Variant, model *nn.Lowered) (*Client, *Server) {
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
	bothSides(b, server.Setup, client.Setup)
	return client, server
}

// bothSides runs the server's and the client's half of one step together.
func bothSides(b *testing.B, server, client func() error) {
	errCh := make(chan error, 1)
	go func() { errCh <- server() }()
	if err := client(); err != nil {
		b.Fatal(err)
	}
	if err := <-errCh; err != nil {
		b.Fatal(err)
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
			client, server := benchPair(b, variant, model)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bothSides(b, func() error { _, err := server.RunOffline(); return err },
					func() error { _, err := client.RunOffline(); return err })
				// Drop the buffered pre-computes so b.N rounds don't
				// accumulate garbled-circuit storage; the buffer is not
				// what this benchmark measures.
				server.pres = server.pres[:0]
				client.pres = client.pres[:0]
			}
		})
	}
}

// BenchmarkOnlinePhase times Client-Garbler inferences on the demo CNN, the
// online phase only: the input share, per ReLU layer the label OT and the
// server's evaluation of the layer's 256 or 128 units, and the output. Each
// inference's offline phase runs with the timer stopped.
func BenchmarkOnlinePhase(b *testing.B) {
	model, err := nn.DemoCNN(field.New(field.P20), 5)
	if err != nil {
		b.Fatal(err)
	}
	client, server := benchPair(b, ClientGarbler, model)
	x := make([]uint64, model.Linear[0].In())
	for i := range x {
		x[i] = uint64(i * 37 % 19)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bothSides(b, func() error { _, err := server.RunOffline(); return err },
			func() error { _, err := client.RunOffline(); return err })
		b.StartTimer()
		bothSides(b, func() error { _, err := server.RunOnline(); return err },
			func() error { _, _, err := client.RunOnline(x); return err })
	}
}
