package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/obs"
)

// TestStatsGolden pins Engine.Stats() for a scripted scenario that touches
// every counted event once or twice: a cold connect, an explicit
// pre-compute, a buffered and an on-the-fly inference, a reconnect on a
// ticket, an unknown and an expired ticket, an eviction + spill + reload
// through a one-artifact registry budget, and ticket-store persistence.
// testdata/stats.golden.json was written at commit 2ee280d, when every count
// had a struct field of its own next to its obs mirror, and regenerated only
// to drop the garbling coalescer's counters with the coalescer and when the
// ReLU circuit shrank, which moved the artifact SizeBytes, and when tickets
// began to hold the client's seeded public key (wire v13), which moved
// Tickets.Bytes by its 32,784 bytes, and when they stopped (wire v14),
// which moved it back to the OT sender state's 2,064; the test
// proves Stats() read from the instruments is the same view — with span
// timing on and with obs.SetEnabled(false), which gates time.Now calls,
// never a count. Durations and the live session's connection byte totals
// (which carry JSON-encoded durations) are zeroed.
// Regenerate only when the scenario or a footprint it reports changes:
//
//	go test ./internal/serve -run TestStatsGolden -update
func TestStatsGolden(t *testing.T) {
	path := filepath.Join("testdata", "stats.golden.json")
	for _, enabled := range []bool{true, false} {
		obs.SetEnabled(enabled)
		st := zeroDurations(statsScenario(t))
		obs.SetEnabled(true)
		got, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if *updateGolden && enabled {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("obs enabled=%v: Engine.Stats() moved from %s:\n%s", enabled, path, got)
		}
	}
}

// statsScenario runs the scripted scenario and returns the engine's final
// snapshot. Every step waits for its effect, so the counts do not depend on
// scheduling.
func statsScenario(t *testing.T) Stats {
	t.Helper()
	reg := storeBackedRegistry(t, t.TempDir(), mlpArtifactSize(t), map[string]int64{"a": 201, "b": 202})
	eng, ln := pipeEngine(t, Config{
		Registry:     reg,
		DefaultModel: "a",
		Variant:      delphi.ServerGarbler,
		TicketDir:    t.TempDir(),
	})
	sessions := func(n int) {
		t.Helper()
		waitFor(t, 5*time.Second, "session count", func() bool { return eng.Stats().ActiveSessions == n })
	}
	infer := func(c *Client, salt int) {
		t.Helper()
		if _, _, _, err := c.Infer(testInput(reg.entries[c.Model()].model, salt)); err != nil {
			t.Fatal(err)
		}
	}

	// Cold connect to a (registry miss, build, write-through), one explicit
	// pre-compute, one buffered and one on-the-fly inference.
	p := NewPreamble()
	c := connectPreamble(t, ln, "a", p)
	if _, _, err := c.Precompute(); err != nil {
		t.Fatal(err)
	}
	infer(c, 1)
	infer(c, 2)
	c.Close()
	sessions(0)

	// Reconnect on the ticket (registry hit).
	c = connectPreamble(t, ln, "a", p)
	if !c.Resumed() {
		t.Fatal("reconnect did not resume")
	}
	infer(c, 3)
	c.Close()
	sessions(0)

	// A ticket nobody issued, presented for b: typed rejection, full
	// handshake, and b's build evicts a.
	bogus := NewPreamble()
	bogus.mu.Lock()
	bogus.ticket = []byte("never-issued-by-anyone")
	bogus.mu.Unlock()
	c = connectPreamble(t, ln, "b", bogus)
	if _, code := c.ResumeOutcome(); code != resumeUnknownTicket {
		t.Fatalf("bogus ticket: reject %q, want %q", code, resumeUnknownTicket)
	}
	infer(c, 4)
	c.Close()
	sessions(0)
	reg.Flush()

	// The first ticket, presented past its TTL: typed expiry, full
	// handshake on a, which reloads from disk and evicts b. The insert that
	// publishes the re-issued ticket prunes the bogus preamble's lapsed one.
	eng.tickets.mu.Lock()
	eng.tickets.now = func() time.Time { return time.Now().Add(DefaultTicketTTL + time.Minute) }
	eng.tickets.mu.Unlock()
	c = connectPreamble(t, ln, "a", p)
	if _, code := c.ResumeOutcome(); code != resumeExpiredTicket {
		t.Fatalf("lapsed ticket: reject %q, want %q", code, resumeExpiredTicket)
	}
	// This session stays connected with one pre-compute buffered, so the
	// snapshot carries a live SessionStats row.
	infer(c, 5)
	if _, _, err := c.Precompute(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reg.Flush()
	eng.tickets.flush()
	return eng.Stats()
}

// zeroDurations clears the fields of a snapshot that depend on the clock.
func zeroDurations(st Stats) Stats {
	for i := range st.Sessions {
		s := &st.Sessions[i]
		s.MeanOffline, s.MeanOnline = 0, 0
		s.BytesSent, s.BytesRecv = 0, 0
	}
	for i := range st.Models {
		st.Models[i].MeanOffline, st.Models[i].MeanOnline = 0, 0
	}
	return st
}
