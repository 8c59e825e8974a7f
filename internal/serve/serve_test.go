package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/field"
	"privinf/internal/nn"
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

func startEngine(t *testing.T, cfg Config) (*Engine, transport.Listener) {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go eng.Serve(ln)
	t.Cleanup(func() { eng.Close() })
	return eng, ln
}

// testRegistry holds model under the name "default", built now as a
// server pre-builds its models, and is closed with the test.
func testRegistry(t testing.TB, model *nn.Lowered) *Registry {
	t.Helper()
	reg := NewRegistry(0)
	t.Cleanup(reg.Close)
	if err := reg.Register("default", model); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("default"); err != nil {
		t.Fatal(err)
	}
	return reg
}

// testConfig is the configuration most engine tests start from: one model,
// Client-Garbler, full layer-parallel HE, no background refills.
func testConfig(t testing.TB, model *nn.Lowered) Config {
	return Config{Registry: testRegistry(t, model), Variant: delphi.ClientGarbler, LPHEWorkers: len(model.Linear)}
}

// testInput is a deterministic in-range input for model, varied by salt.
func testInput(model *nn.Lowered, salt int) []uint64 {
	x := make([]uint64, model.InputLen())
	for j := range x {
		x[j] = uint64((j*3 + salt) % 13)
	}
	return x
}

// inferExact runs one inference on testInput(model, salt) and returns its
// output, or an error when the inference fails, is not bit-exact with
// plaintext evaluation, or comes back without both parties' online
// reports. It never touches a testing.T, so client goroutines may call it.
func inferExact(c *Client, model *nn.Lowered, salt int) ([]uint64, error) {
	x := testInput(model, salt)
	out, cliRep, srvRep, err := c.Infer(x)
	if err != nil {
		return nil, err
	}
	if cliRep.Duration <= 0 || srvRep.Duration <= 0 {
		return nil, errors.New("empty online reports")
	}
	for j, w := range model.Forward(x) {
		if out[j] != w {
			return nil, fmt.Errorf("output %d = %d, plaintext inference gives %d", j, out[j], w)
		}
	}
	return out, nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConcurrentClientsOverTCP is the acceptance scenario: four client
// sessions inferring in parallel against one engine over real TCP
// loopback sockets, every output bit-exact with plaintext inference.
func TestConcurrentClientsOverTCP(t *testing.T) {
	model := testModel(t, 71)
	eng, ln := startEngine(t, Config{
		Registry:         testRegistry(t, model),
		Variant:          delphi.ClientGarbler,
		LPHEWorkers:      len(model.Linear),
		BufferPerSession: 1,
		StorageBudget:    -1, // unbounded
		OfflineWorkers:   2,
	})

	const clients = 4
	const infersPerClient = 2
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(ln.Addr(), nil)
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %w", ci, err)
				return
			}
			defer c.Close()
			for k := 0; k < infersPerClient; k++ {
				if _, err := inferExact(c, model, ci+k); err != nil {
					errs <- fmt.Errorf("client %d infer %d: %w", ci, k, err)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := eng.Stats()
	if st.TotalInferences != clients*infersPerClient {
		t.Errorf("engine served %d inferences, want %d", st.TotalInferences, clients*infersPerClient)
	}
	if st.TotalPrecomputes < st.TotalInferences {
		t.Errorf("engine ran %d precomputes for %d inferences", st.TotalPrecomputes, st.TotalInferences)
	}
}

// TestExplicitPrecomputeAndBuffering covers the client-driven path with the
// background scheduler disabled: explicit pre-computes buffer, inferences
// drain FIFO, and an empty buffer falls back to an inline offline phase.
func TestExplicitPrecomputeAndBuffering(t *testing.T) {
	model := testModel(t, 72)
	eng, ln := startEngine(t, Config{
		Registry:    testRegistry(t, model),
		Variant:     delphi.ServerGarbler,
		LPHEWorkers: len(model.Linear),
		// BufferPerSession 0: no background refills.
	})

	c, err := Dial(ln.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 2; i++ {
		cliRep, srvRep, err := c.Precompute()
		if err != nil {
			t.Fatal(err)
		}
		if cliRep.Duration <= 0 || srvRep.Duration <= 0 {
			t.Fatal("offline reports should record durations")
		}
		if cliRep.BytesSent == 0 || srvRep.BytesSent == 0 {
			t.Fatal("offline reports should record traffic")
		}
	}
	if c.Buffered() != 2 {
		t.Fatalf("buffered %d, want 2", c.Buffered())
	}
	st := eng.Stats()
	if st.TotalBuffered != 2 {
		t.Fatalf("engine reports %d buffered, want 2", st.TotalBuffered)
	}

	// Three inferences: two consume the buffer, the third runs on-the-fly.
	for i := 0; i < 3; i++ {
		if _, err := inferExact(c, model, i); err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
	}
	if c.Buffered() != 0 {
		t.Fatalf("buffer should be drained, have %d", c.Buffered())
	}
	st = eng.Stats()
	if st.TotalInferences != 3 || st.TotalPrecomputes != 3 {
		t.Fatalf("stats %d inferences / %d precomputes, want 3/3", st.TotalInferences, st.TotalPrecomputes)
	}
}

// TestNewStartsNoGoroutine: a one-model engine does nothing in the
// background until Serve hands it a connection.
func TestNewStartsNoGoroutine(t *testing.T) {
	model := testModel(t, 74)
	before := runtime.NumGoroutine()
	eng, err := New(Config{Registry: testRegistry(t, model), Variant: delphi.ServerGarbler})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New started %d goroutines", after-before)
	}
}

// TestStorageBudgetRespected pins the scheduler's global budget: with three
// sessions wanting three slots each but only four granted globally, the
// background refiller stops at four and never exceeds it.
func TestStorageBudgetRespected(t *testing.T) {
	model := testModel(t, 73)
	eng, ln := startEngine(t, Config{
		Registry:         testRegistry(t, model),
		Variant:          delphi.ClientGarbler,
		LPHEWorkers:      len(model.Linear),
		BufferPerSession: 3,
		StorageBudget:    4,
		OfflineWorkers:   2,
	})

	const clients = 3
	cs := make([]*Client, clients)
	for i := range cs {
		c, err := Dial(ln.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}

	waitFor(t, 30*time.Second, "budget-limited refill", func() bool {
		st := eng.Stats()
		return st.TotalBuffered == 4 && st.RefillsInFlight == 0
	})
	// Settle and confirm the refiller has actually stopped at the budget.
	time.Sleep(50 * time.Millisecond)
	st := eng.Stats()
	if st.TotalBuffered != 4 || st.RefillsInFlight != 0 {
		t.Fatalf("buffered %d (inflight %d), want exactly the budget of 4", st.TotalBuffered, st.RefillsInFlight)
	}
	// An inference consumes a slot; the freed budget must be re-granted.
	if _, err := inferExact(cs[0], model, 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "refill after consumption", func() bool {
		st := eng.Stats()
		return st.TotalBuffered == 4 && st.RefillsInFlight == 0
	})
}
