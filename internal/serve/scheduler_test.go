package serve

import (
	"testing"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/sim"
	"privinf/internal/transport"
)

// TestSchedulerMatchesSimulatorPolicy validates the live engine's refill
// scheduler against the discrete-event simulator's predictions: both use
// sim.NeediestClient, so for a deterministic registration order the buffer
// distribution the engine converges to must equal the one obtained by
// stepping the simulator's policy to quiescence.
func TestSchedulerMatchesSimulatorPolicy(t *testing.T) {
	const (
		capacity = 3
		budget   = 4
		clients  = 3
	)
	model := testModel(t, 74)
	eng, ln := startEngine(t, Config{
		Registry:         testRegistry(t, model),
		Variant:          delphi.ClientGarbler,
		LPHEWorkers:      len(model.Linear),
		BufferPerSession: capacity,
		StorageBudget:    budget,
		OfflineWorkers:   1,
	})

	// Predicted steady state: clients join one at a time, and after each
	// join the policy refills to quiescence (grant the neediest while
	// budget remains), exactly as the engine's scheduler does. The state
	// carries across joins — buffered pre-computes are never redistributed.
	var predicted []int
	join := func() []int {
		predicted = append(predicted, 0)
		for {
			used := 0
			for _, r := range predicted {
				used += r
			}
			if used >= budget {
				break
			}
			i := sim.NeediestClient(capacity, predicted, make([]int, len(predicted)))
			if i < 0 {
				break
			}
			predicted[i]++
		}
		return predicted
	}

	total := func(r []int) int {
		n := 0
		for _, v := range r {
			n += v
		}
		return n
	}

	var cs []*Client
	defer func() {
		for _, c := range cs {
			c.Close()
		}
	}()
	for joined := 1; joined <= clients; joined++ {
		conn, err := transport.Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c, err := Connect(conn)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
		want := join()
		waitFor(t, 30*time.Second, "refill quiescence", func() bool {
			st := eng.Stats()
			return st.ActiveSessions == joined && st.TotalBuffered == total(want) && st.RefillsInFlight == 0
		})
	}

	want := predicted
	st := eng.Stats()
	if len(st.Sessions) != clients {
		t.Fatalf("%d sessions, want %d", len(st.Sessions), clients)
	}
	// Session IDs are assigned in registration order, which the sequential
	// joins above fixed, so the distribution must match index-for-index.
	for i, ss := range st.Sessions {
		if ss.Buffered != want[i] {
			t.Errorf("session %d buffered %d, simulator policy predicts %d (live %v, predicted %v)",
				ss.ID, ss.Buffered, want[i], st.Sessions, want)
			break
		}
	}
	// Client-side buffer views must agree with the engine's accounting.
	for i, c := range cs {
		if c.Buffered() != want[i] {
			t.Errorf("client %d sees %d buffered, want %d", i, c.Buffered(), want[i])
		}
	}
}
