package serve

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/delphi"
	"privinf/internal/nn"
	"privinf/internal/obs"
	"privinf/internal/ot"
)

// Cross-restart battery for durable session state: each test crashes one
// or both endpoints (server ticket cache → TicketDir, client preamble →
// PreambleStore), reconnects, and requires the resumed fast path with
// outputs bit-identical to the pre-crash cold session. Run under -race
// these double as the persistence paths' concurrency tests.

// durableConfig is the engine config every restart test shares, and the
// model it serves: same model seed, same ticket directory across
// "restarts".
func durableConfig(t *testing.T, dir string, seed int64) (Config, *nn.Lowered) {
	t.Helper()
	model := testModel(t, seed)
	cfg := testConfig(t, model)
	cfg.TicketDir = dir
	return cfg, model
}

// inferOnce runs one inference on a fixed input through a connected client
// and requires it bit-exact with plaintext evaluation — so a pre-crash and
// a post-restart call that both pass produced identical outputs.
func inferOnce(t *testing.T, c *Client, model *nn.Lowered) {
	t.Helper()
	if _, err := inferExact(c, model, 1); err != nil {
		t.Fatal(err)
	}
}

// heGeneration returns the preamble's held HE key pair. A resumed connect
// must leave it the same pointer — a new one means keygen ran.
func heGeneration(p *Preamble) *delphi.HEKeyPair {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heKeys
}

// TestEngineRestartKeepsResumedPath: server-only crash. The restarted
// engine reloads its tickets from TicketDir and the client's very next
// connect — unchanged in-memory preamble — takes the resumed fast path
// with bit-identical output.
func TestEngineRestartKeepsResumedPath(t *testing.T) {
	dir := t.TempDir()
	cfg, model := durableConfig(t, dir, 160)

	eng1, ln1 := pipeEngine(t, cfg)
	p := NewPreamble()
	cold := connectPreamble(t, ln1, "", p)
	inferOnce(t, cold, model)
	cold.Close()
	if err := eng1.Close(); err != nil { // flushes ticket write-throughs
		t.Fatal(err)
	}

	eng2, ln2 := pipeEngine(t, cfg)
	st := eng2.Stats()
	if st.Tickets.Loaded != 1 || st.Tickets.LoadErrors != 0 {
		t.Fatalf("restarted engine loaded %d tickets (%d errors), want 1 clean",
			st.Tickets.Loaded, st.Tickets.LoadErrors)
	}
	keysBefore := heGeneration(p)
	if keysBefore == nil {
		t.Fatal("cold handshake left the preamble no HE key pair")
	}
	c := connectPreamble(t, ln2, "", p)
	defer c.Close()
	if resumed, code := c.ResumeOutcome(); !resumed || code != "" {
		t.Fatalf("post-restart connect resumed=%v reject=%q, want clean resume", resumed, code)
	}
	if heGeneration(p) != keysBefore {
		t.Fatal("resumed connect replaced the held HE key pair: keygen ran")
	}
	inferOnce(t, c, model)
	if st := eng2.Stats(); st.Tickets.Resumed != 1 {
		t.Fatalf("restarted engine resumed counter = %d, want 1", st.Tickets.Resumed)
	}
}

// TestClientRestartKeepsResumedPath: client-only crash. The preamble is
// persisted, dropped, and reloaded from disk; the reconnect against the
// still-running engine resumes with zero keygen and bit-identical output.
func TestClientRestartKeepsResumedPath(t *testing.T) {
	cfg, model := durableConfig(t, t.TempDir(), 161)
	_, ln := pipeEngine(t, cfg)

	p := NewPreamble()
	cold := connectPreamble(t, ln, "", p)
	inferOnce(t, cold, model)
	cold.Close()

	ps, err := NewPreambleStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Save("c", p); err != nil {
		t.Fatal(err)
	}
	p2, err := ps.Load("c") // the "restarted" client's state
	if err != nil {
		t.Fatal(err)
	}

	keysBefore := heGeneration(p2)
	if keysBefore == nil {
		t.Fatal("reloaded preamble carries no HE key pair")
	}
	c := connectPreamble(t, ln, "", p2)
	defer c.Close()
	if !c.Resumed() {
		t.Fatal("reconnect from a reloaded preamble should resume")
	}
	if heGeneration(p2) != keysBefore {
		t.Fatal("resumed connect from disk state drew new HE keys")
	}
	inferOnce(t, c, model)
}

// TestBothPartiesRestartResume is the tentpole acceptance test: both
// processes die, both reload from disk, and the very first connect of the
// new pair completes the fast path — ticket accepted, no base OTs, no BFV
// keygen — with output bit-identical to the cold session's.
func TestBothPartiesRestartResume(t *testing.T) {
	ticketDir := t.TempDir()
	cfg, model := durableConfig(t, ticketDir, 162)

	eng1, ln1 := pipeEngine(t, cfg)
	p := NewPreamble()
	cold := connectPreamble(t, ln1, "", p)
	inferOnce(t, cold, model)
	cold.Close()

	ps, err := NewPreambleStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Save("c", p); err != nil {
		t.Fatal(err)
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	// Both parties are new objects over the old directories.
	eng2, ln2 := pipeEngine(t, cfg)
	p2, err := ps.Load("c")
	if err != nil {
		t.Fatal(err)
	}
	keysBefore := heGeneration(p2)
	if keysBefore == nil {
		t.Fatal("reloaded preamble carries no HE key pair")
	}
	c := connectPreamble(t, ln2, "", p2)
	defer c.Close()
	if resumed, code := c.ResumeOutcome(); !resumed || code != "" {
		t.Fatalf("double-restart connect resumed=%v reject=%q, want clean resume", resumed, code)
	}
	if heGeneration(p2) != keysBefore {
		t.Fatal("double-restart resumed connect drew new HE keys")
	}
	inferOnce(t, c, model)
	st := eng2.Stats()
	if st.Tickets.Loaded != 1 || st.Tickets.Resumed != 1 || st.Tickets.LoadErrors != 0 {
		t.Fatalf("restarted engine ticket stats %+v, want loaded=1 resumed=1", st.Tickets)
	}
}

// TestCorruptTicketFileFallsBack: a damaged record in TicketDir is counted
// as a load error and deleted; the affected client falls back to a typed
// unknown_ticket full handshake that still serves correct inferences and
// re-issues a working ticket. A failing store shows where operators look:
// load and persist failures are events of pi_tickets_total, and TicketStats
// is a read of them.
func TestCorruptTicketFileFallsBack(t *testing.T) {
	ticketDir := t.TempDir()
	cfg, model := durableConfig(t, ticketDir, 163)

	eng1, ln1 := pipeEngine(t, cfg)
	p := NewPreamble()
	connectPreamble(t, ln1, "", p).Close()
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(ticketDir, "*"+ticketSuffix))
	if err != nil || len(files) != 1 {
		t.Fatalf("ticket dir holds %d records (%v), want 1", len(files), err)
	}
	rewriteFile(t, files[0], func(b []byte) []byte {
		b[len(b)/2] ^= 0x01
		return b
	})

	eng2, ln2 := pipeEngine(t, cfg)
	st := eng2.Stats()
	if st.Tickets.Loaded != 0 || st.Tickets.LoadErrors != 1 {
		t.Fatalf("corrupt record: loaded=%d loadErrors=%d, want 0/1", st.Tickets.Loaded, st.Tickets.LoadErrors)
	}
	if _, err := os.Stat(files[0]); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt record left on disk to fail every future load")
	}

	c := connectPreamble(t, ln2, "", p)
	if resumed, code := c.ResumeOutcome(); resumed || code != resumeUnknownTicket {
		t.Fatalf("resumed=%v reject=%q, want typed %q fallback", resumed, code, resumeUnknownTicket)
	}
	inferOnce(t, c, model)
	c.Close()

	// The fallback's fresh ticket works — and is durable again.
	c2 := connectPreamble(t, ln2, "", p)
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("reconnect after fallback re-issue should resume")
	}

	// Lose the directory under the running engine: the next ticket's
	// write-through cannot land.
	eng2.tickets.flush()
	if err := os.RemoveAll(ticketDir); err != nil {
		t.Fatal(err)
	}
	connectPreamble(t, ln2, "", NewPreamble()).Close()
	eng2.tickets.flush()
	if st := eng2.Stats().Tickets; st.LoadErrors != 1 || st.PersistErrors != 1 {
		t.Fatalf("ticket stats %+v, want one load error and one persist error", st)
	}
	var metrics strings.Builder
	if err := obs.WritePrometheus(&metrics, eng2.met.reg); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`pi_tickets_total{model="",event="load_error"} 1`,
		`pi_tickets_total{model="",event="persist_error"} 1`,
	} {
		if !strings.Contains(metrics.String(), series+"\n") {
			t.Errorf("engine /metrics view missing %s:\n%s", series, metrics.String())
		}
	}
}

// TestExpiredTicketOnDiskSwept: a record whose TTL lapsed while the engine
// was down is swept at startup and counted expired — TTL semantics hold
// across restarts.
func TestExpiredTicketOnDiskSwept(t *testing.T) {
	ticketDir := t.TempDir()
	ts, err := newTicketStore(ticketDir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testTicketRecord(t, 60, time.Now().Add(-time.Minute))
	if err := ts.save(rec); err != nil {
		t.Fatal(err)
	}

	cfg, _ := durableConfig(t, ticketDir, 164)
	eng, _ := pipeEngine(t, cfg)
	st := eng.Stats()
	if st.Tickets.Loaded != 0 || st.Tickets.Expired != 1 || st.Tickets.LoadErrors != 0 {
		t.Fatalf("lapsed record: stats %+v, want expired=1 only", st.Tickets)
	}
	if _, err := os.Stat(ts.path(rec.id)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("lapsed record left on disk")
	}
}

// TestCorruptPreambleFallsBackFresh: every damaged-preamble class surfaces
// the right sentinel, and the documented fallback — NewPreamble, full
// handshake — works against a live engine.
func TestCorruptPreambleFallsBackFresh(t *testing.T) {
	cfg, _ := durableConfig(t, t.TempDir(), 165)
	_, ln := pipeEngine(t, cfg)

	ps, err := NewPreambleStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPreamble()
	connectPreamble(t, ln, "", p).Close()
	if err := ps.Save("c", p); err != nil {
		t.Fatal(err)
	}
	rewriteFile(t, ps.Path("c"), func(b []byte) []byte {
		b[storeHeaderBytes+32] ^= 0x80
		return b
	})
	if _, err := ps.Load("c"); !errors.Is(err, ErrPreambleCorrupt) {
		t.Fatalf("Load of damaged preamble = %v, want ErrPreambleCorrupt", err)
	}

	// The fallback the error contract prescribes: start fresh.
	fresh := NewPreamble()
	c := connectPreamble(t, ln, "", fresh)
	defer c.Close()
	if c.Resumed() {
		t.Fatal("fresh preamble cannot resume")
	}
	if !fresh.HasTicket() {
		t.Fatal("fresh-start handshake issued no new ticket")
	}
}

// TestTicketDirRequiresResumption: persisting tickets with resumption
// disabled is a configuration contradiction New rejects.
func TestTicketDirRequiresResumption(t *testing.T) {
	_, err := New(Config{
		Registry:  testRegistry(t, testModel(t, 166)),
		Variant:   delphi.ClientGarbler,
		TicketTTL: -1,
		TicketDir: t.TempDir(),
	})
	if err == nil {
		t.Fatal("New accepted TicketDir with resumption disabled")
	}
}

// TestOlderWireStateResumes: durable state carries across wire bumps,
// because it holds seeds and no bump changed them — v5 changed how the OT
// extension hashes its ciphertexts, v6 the base OT that makes the seeds in
// a full handshake, v7 the online OT, which now derandomizes random OTs
// precomputed offline on the same seeds, v8 the ReLU circuit, which no store
// holds, v9 the OT answer, now correlated, on the same seeds again, v10 the
// offline HE records, which no store holds: the cached HE secret key now
// encrypts the seeded uploads directly, v11 the garbled layer record, which
// no store holds either, v12 Server-Garbler's b and r OTs, which now end at
// their t frames and expand the same seeds, v13 the public key, which a
// ticket held, seeded, for re-randomizing responses, v14 that key again,
// which every connect now sends, so a ticket holds OT seeds only, v15
// where Client-Garbler's a-label OTs run, now around each garbled layer,
// on the same seeds, and v16 the label OTs' rows, now the labels under the
// offset s. testdata/wire4 through wire15 are what the last commit of
// each release left after one cold Client-Garbler session on
// testModel(170): the engine's ticket directory and the client's preamble
// file (saved with no cached model artifact, which keeps the file small
// and makes the reconnect rebuild it). The current engine loads the ticket
// — a v13 one drops the key it holds. Since v16, s must have its lsb set
// to be the garbler's offset, and a state whose s has lsb 0 (wire4, wire9
// and wire12–15) resumes nothing: its client connects without the ticket,
// runs one full handshake on the same connection and holds a fresh ticket
// and state, on which the next connect resumes. On every other state the
// current client resumes with no base OTs. A preamble written before v13
// (wire4–wire12) holds its public key unseeded, (degree ‖ b ‖ a), and
// loads with no key pair; wire13–wire15 load with theirs. The first
// connect draws a pair exactly when the state cannot resume or the
// preamble loaded none, and the connect after the engine's restart
// resumes with no keygen on every release. Either way the inference is
// bit-exact, every engine over the tickets, the restarted one too, holds
// OT receiver states and nothing else, and each ticket saved during the
// test holds no key.
func TestOlderWireStateResumes(t *testing.T) {
	lsb0 := map[string]bool{"wire4": true, "wire9": true, "wire12": true, "wire13": true, "wire14": true, "wire15": true}
	seeded := map[string]bool{"wire13": true, "wire14": true, "wire15": true}
	for _, release := range []string{"wire4", "wire5", "wire6", "wire7", "wire8", "wire9", "wire10", "wire11", "wire12", "wire13", "wire14", "wire15"} {
		t.Run(release, func(t *testing.T) {
			dir := t.TempDir() // the stores sweep and rewrite their directories
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", release))); err != nil {
				t.Fatal(err)
			}
			cfg, model := durableConfig(t, filepath.Join(dir, "tickets"), 170)
			eng, ln := pipeEngine(t, cfg)
			// A Client-Garbler engine's ticket is its OT receiver state:
			// Tickets.Bytes is that state's OTResume.SizeBytes.
			if st := eng.Stats().Tickets; st.Loaded != 1 || st.LoadErrors != 0 || st.Expired != 0 || st.Bytes != ot.ReceiverStateBytes {
				t.Fatalf("engine over the %s ticket dir: %+v, want one clean load of %d bytes", release, st, ot.ReceiverStateBytes)
			}
			ps, err := NewPreambleStore(filepath.Join(dir, "preamble"))
			if err != nil {
				t.Fatal(err)
			}
			p, err := ps.Load(release)
			if err != nil {
				t.Fatal(err)
			}
			if _, st := p.ticketSnapshot(); st.Resumable() == lsb0[release] {
				t.Fatalf("%s preamble's sender state: resumable %v, want %v", release, st.Resumable(), !lsb0[release])
			}
			keysBefore := heGeneration(p)
			if (keysBefore != nil) != seeded[release] {
				t.Fatalf("%s preamble loaded with a key pair: %v, want %v", release, keysBefore != nil, seeded[release])
			}
			c := connectPreamble(t, ln, "", p)
			defer c.Close()
			resumed, code := c.ResumeOutcome()
			drew := heGeneration(p) != keysBefore
			if resumed == lsb0[release] || code != "" || drew != (lsb0[release] || keysBefore == nil) {
				t.Fatalf("connect on %s state resumed=%v reject=%q drew keys=%v; want a resume on a state with s's lsb set, else a full handshake, and keygen exactly when the connect is a full handshake or no pair loaded", release, resumed, code, drew)
			}
			inferOnce(t, c, model)
			c.Close()
			if err := eng.Close(); err != nil { // flushes the saved tickets
				t.Fatal(err)
			}
			tickets := 1
			if lsb0[release] { // the full handshake's ticket joins the unused old one
				tickets = 2
			}
			files, err := filepath.Glob(filepath.Join(dir, "tickets", "*"+ticketSuffix))
			if err != nil || len(files) != tickets {
				t.Fatalf("ticket dir after the session: %v (err %v), want %d records", files, err, tickets)
			}
			for _, f := range files {
				if _, err := os.Stat(filepath.Join("testdata", release, "tickets", filepath.Base(f))); err == nil && lsb0[release] {
					continue // the old ticket, never redeemed, is never saved again
				}
				fi, err := os.Stat(f)
				if err != nil {
					t.Fatal(err)
				}
				if fi.Size() >= bfv.SeedSize+8*bfv.DefaultN {
					t.Fatalf("%s ticket record is %d bytes, want a record smaller than one key", release, fi.Size())
				}
			}

			eng2, ln2 := pipeEngine(t, cfg)
			if st := eng2.Stats().Tickets; st.Loaded != uint64(tickets) || st.Bytes != int64(tickets)*ot.ReceiverStateBytes {
				t.Fatalf("restart over the %s tickets: %+v, want %d loads of %d bytes", release, st, tickets, ot.ReceiverStateBytes)
			}
			keysBefore = heGeneration(p)
			c2 := connectPreamble(t, ln2, "", p)
			defer c2.Close()
			if resumed, code := c2.ResumeOutcome(); !resumed || code != "" || heGeneration(p) != keysBefore {
				t.Fatalf("second connect on %s state resumed=%v reject=%q drew keys=%v, want a resume with no keygen", release, resumed, code, heGeneration(p) != keysBefore)
			}
			inferOnce(t, c2, model)
		})
	}
}
