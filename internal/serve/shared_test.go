package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/delphi"
	"privinf/internal/nn"
)

func mustParams(t *testing.T, model *nn.Lowered) bfv.Params {
	t.Helper()
	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// TestConcurrentSessionsShareArtifact is the shared-artifact acceptance
// scenario: eight concurrent sessions served from one engine — and
// therefore one immutable SharedModel (one copy of the encoded weights and
// circuits) — each produce inferences bit-exact with plaintext evaluation.
// Under Server-Garbler the eight sessions also garble their offline phases
// at the same time, each on its own goroutine. Run under -race this pins
// that the artifact is safe for concurrent reads.
func TestConcurrentSessionsShareArtifact(t *testing.T) {
	model := testModel(t, 81)
	reg := testRegistry(t, model)
	for _, variant := range []delphi.Variant{delphi.ClientGarbler, delphi.ServerGarbler} {
		t.Run(variant.String(), func(t *testing.T) {
			eng, ln := pipeEngine(t, Config{
				Registry:    reg,
				Variant:     variant,
				LPHEWorkers: len(model.Linear),
			})

			const sessions = 8
			var wg sync.WaitGroup
			errs := make(chan error, sessions)
			for ci := 0; ci < sessions; ci++ {
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					c, err := dialPipe(ln)
					if err != nil {
						errs <- fmt.Errorf("session %d connect: %w", ci, err)
						return
					}
					defer c.Close()
					if _, err := inferExact(c, model, ci); err != nil {
						errs <- fmt.Errorf("session %d infer: %w", ci, err)
					}
				}(ci)
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
		})
	}
}

// TestServerGarblerCloseDuringRefills closes a Server-Garbler engine while
// background refills are garbling: Close must not wait on them forever, and
// every Infer still pending must fail rather than hang.
func TestServerGarblerCloseDuringRefills(t *testing.T) {
	const sessions = 3
	model := testModel(t, 83)
	eng, ln := pipeEngine(t, Config{
		Registry:         testRegistry(t, model),
		Variant:          delphi.ServerGarbler,
		LPHEWorkers:      len(model.Linear),
		BufferPerSession: 2,
		StorageBudget:    -1,
		OfflineWorkers:   sessions,
	})

	errs := make(chan error, sessions) // one per session, when its Infer fails
	for ci := 0; ci < sessions; ci++ {
		c, err := dialPipe(ln)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Infer until the engine goes away; only an error ends the loop.
		go func(ci int) {
			for i := 0; ; i++ {
				if _, _, _, err := c.Infer(testInput(model, ci+i)); err != nil {
					errs <- err
					return
				}
			}
		}(ci)
	}
	waitFor(t, 10*time.Second, "refills in flight", func() bool { return eng.Stats().RefillsInFlight > 0 })

	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return within 10s of closing during refills")
	}
	for ci := 0; ci < sessions; ci++ {
		select {
		case <-errs:
		case <-time.After(10 * time.Second):
			t.Fatal("a pending Infer did not return after Close")
		}
	}
}

// TestArtifactSharedAcrossEngines: one registry's built artifact backs two
// independent engines, and a session on each still verifies — the artifact
// carries no per-engine or per-session state.
func TestArtifactSharedAcrossEngines(t *testing.T) {
	model := testModel(t, 82)
	reg := testRegistry(t, model)
	for i := 0; i < 2; i++ {
		eng, ln := pipeEngine(t, Config{Registry: reg, Variant: delphi.ServerGarbler, LPHEWorkers: 2})
		c, err := dialPipe(ln)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inferExact(c, model, i); err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		c.Close()
		eng.Close()
	}
}
