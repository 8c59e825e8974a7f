package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stats.golden.json from the current code")

// TestStatsGolden pins Router.Stats() and both replicas' Engine.Stats() for
// a scripted routed scenario: a hashed placement, a placement that spills
// off the loaded primary, and a reconnect that is ticket-sticky.
// testdata/stats.golden.json was written at commit 2ee280d, when the router
// kept each count in an atomic field next to its obs mirror (and guarded
// the two spill counts by different predicates); the test proves the
// instrument-backed Stats() is the same view. It was regenerated four times
// since: to drop a counter of the engine's deleted garbling coalescer, when
// the ReLU circuit shrank, which moved each artifact's SizeBytes, when
// tickets began to hold the client's seeded public key (wire v13), which
// moved each replica's Tickets.Bytes by its 32,784 bytes, and when they
// stopped (wire v14), which moved it back to the OT receiver state's 4,096
// bytes. Durations are
// zeroed; no session is live at the snapshot. Regenerate only when the
// scenario or a footprint it reports changes:
//
//	go test ./internal/fleet -run TestStatsGolden -update
func TestStatsGolden(t *testing.T) {
	model := testModel(t, 58)
	reg := serve.NewRegistry(0)
	if err := reg.Register("m", model); err != nil {
		t.Fatal(err)
	}
	// SpillFactor 0.5: one live session on the hashed replica of an
	// otherwise idle pair already exceeds 0.5 x (mean load + 1).
	r := NewRouter(Config{SpillFactor: 0.5})
	t.Cleanup(func() { r.Close() })
	for i := 0; i < 2; i++ {
		eng, err := serve.New(serve.Config{Registry: reg, Variant: delphi.ClientGarbler, SetupWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.AddEngine(eng); err != nil {
			t.Fatal(err)
		}
	}
	ln := r.ServePipe()
	idle := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			busy := 0
			for _, rep := range r.Replicas() {
				busy += rep.Load() + rep.Engine().Stats().ActiveSessions
			}
			if busy == 0 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("fleet did not go idle")
	}
	infer := func(c *serve.Client, salt int) {
		t.Helper()
		if _, _, _, err := c.Infer(testInput(model, salt)); err != nil {
			t.Fatal(err)
		}
	}

	p1, p2 := serve.NewPreamble(), serve.NewPreamble()
	c1 := dialFleet(t, ln, serve.WithModel("m"), serve.WithPreamble(p1)) // hashed
	infer(c1, 1)
	c2 := dialFleet(t, ln, serve.WithModel("m"), serve.WithPreamble(p2)) // spills off c1's replica
	infer(c2, 2)
	c1.Close()
	c2.Close()
	idle()
	c3 := dialFleet(t, ln, serve.WithModel("m"), serve.WithPreamble(p1)) // sticky to c1's replica
	if !c3.Resumed() {
		t.Fatal("sticky reconnect did not resume")
	}
	infer(c3, 3)
	c3.Close()
	idle()

	var snap struct {
		Router   Stats
		Replicas []serve.Stats
	}
	snap.Router = r.Stats()
	for _, rep := range r.Replicas() {
		st := rep.Engine().Stats()
		for i := range st.Models {
			st.Models[i].MeanOffline, st.Models[i].MeanOnline = 0, 0
		}
		snap.Replicas = append(snap.Replicas, st)
	}
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "stats.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet stats moved from %s:\n%s", path, got)
	}
}
