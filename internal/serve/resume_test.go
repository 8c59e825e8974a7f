package serve

import (
	"errors"
	"testing"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/transport"
)

// connectPreamble opens a session through a preamble over an in-process
// listener.
func connectPreamble(t testing.TB, ln *transport.PipeListener, model string, p *Preamble) *Client {
	t.Helper()
	c, err := dialPipe(ln, WithModel(model), WithPreamble(p))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// dialPipe opens a session over an in-process listener. It never touches a
// testing.T, so client goroutines may call it.
func dialPipe(ln *transport.PipeListener, opts ...Option) (*Client, error) {
	conn, err := ln.Dial()
	if err != nil {
		return nil, err
	}
	c, err := Connect(conn, opts...)
	if err != nil {
		conn.Close()
	}
	return c, err
}

// pipeEngine starts an engine on an in-process listener and closes it with
// the test.
func pipeEngine(t testing.TB, cfg Config) (*Engine, *transport.PipeListener) {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln := transport.NewPipeListener()
	go eng.Serve(ln)
	t.Cleanup(func() { eng.Close() })
	return eng, ln
}

// TestTicketHoldsOTStateOnly: a full handshake's ticket holds the engine's
// OT seeds and no key — 4,096 B, the OT receiver state, under
// Client-Garbler and 2,064 B, the sender state, under Server-Garbler — and
// a resumed connect, whose client sends its key, runs bit-exact and leaves
// the ticket as it was.
func TestTicketHoldsOTStateOnly(t *testing.T) {
	model := testModel(t, 67)
	for _, c := range []struct {
		variant delphi.Variant
		bytes   int64
	}{{delphi.ClientGarbler, 4096}, {delphi.ServerGarbler, 2064}} {
		t.Run(c.variant.String(), func(t *testing.T) {
			cfg := testConfig(t, model)
			cfg.Variant = c.variant
			eng, ln := pipeEngine(t, cfg)
			p := NewPreamble()
			connectPreamble(t, ln, "", p).Close()
			eng.tickets.flush() // a Client-Garbler client returns before the engine's seeds exist
			if st := eng.Stats().Tickets; st.Tickets != 1 || st.Bytes != c.bytes {
				t.Fatalf("after one cold handshake: %d tickets of %d bytes, want 1 of %d", st.Tickets, st.Bytes, c.bytes)
			}
			resumed := connectPreamble(t, ln, "", p)
			defer resumed.Close()
			if !resumed.Resumed() {
				t.Fatal("reconnect did not resume")
			}
			inferOnce(t, resumed, model)
			if st := eng.Stats().Tickets; st.Tickets != 1 || st.Bytes != c.bytes {
				t.Fatalf("after a resumed session: %d tickets of %d bytes, want 1 of %d", st.Tickets, st.Bytes, c.bytes)
			}
		})
	}
}

// TestServerGarblerRefusesColourBit: a Server-Garbler engine whose ticket
// holds an OT sender state with s's lsb 0 refuses it at redeem with the
// typed colour_bit code and drops it; the session falls back to a full
// handshake on the same connection, runs bit-exact, and its fresh ticket
// resumes the next connect.
func TestServerGarblerRefusesColourBit(t *testing.T) {
	model := testModel(t, 68)
	cfg := testConfig(t, model)
	cfg.Variant = delphi.ServerGarbler
	eng, ln := pipeEngine(t, cfg)
	p := NewPreamble()
	connectPreamble(t, ln, "", p).Close()
	eng.tickets.flush()
	id, _ := p.ticketSnapshot()
	eng.tickets.mu.Lock()
	e := eng.tickets.entries[string(id)]
	raw, err := e.state.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	raw[1] &^= 1 // the flags byte, then s
	if e.state, err = delphi.UnmarshalOTResume(raw); err != nil {
		t.Fatal(err)
	}
	eng.tickets.mu.Unlock()

	c := connectPreamble(t, ln, "", p)
	defer c.Close()
	if resumed, code := c.ResumeOutcome(); resumed || code != resumeColourBit {
		t.Fatalf("connect on an lsb-0 sender state resumed=%v reject=%q, want a %q refusal", resumed, code, resumeColourBit)
	}
	inferOnce(t, c, model)
	if _, reject := eng.tickets.redeem(id, ""); reject != resumeUnknownTicket {
		t.Fatalf("the refused ticket redeems with %q, want it dropped", reject)
	}
	c2 := connectPreamble(t, ln, "", p)
	defer c2.Close()
	if resumed, code := c2.ResumeOutcome(); !resumed || code != "" {
		t.Fatalf("connect on the fresh ticket resumed=%v reject=%q", resumed, code)
	}
	inferOnce(t, c2, model)
}

// TestSessionResumeRoundTrip is the preamble subsystem's acceptance test on
// the demo CNN: a cold session's full handshake issues a ticket, the
// reconnect resumes from it (no base OTs), and the resumed session's
// inference output is bit-identical to the cold session's.
func TestSessionResumeRoundTrip(t *testing.T) {
	model, err := nn.DemoCNN(field.New(field.P20), 61)
	if err != nil {
		t.Fatal(err)
	}
	eng, ln := pipeEngine(t, testConfig(t, model))

	p := NewPreamble()
	cold := connectPreamble(t, ln, "", p)
	if cold.Resumed() {
		t.Fatal("first connect cannot resume")
	}
	if !p.HasTicket() {
		t.Fatal("full handshake issued no resumption ticket")
	}
	if _, err := inferExact(cold, model, 3); err != nil {
		t.Fatalf("cold session: %v", err)
	}
	cold.Close()

	resumed := connectPreamble(t, ln, "", p)
	defer resumed.Close()
	if got, code := resumed.ResumeOutcome(); !got || code != "" {
		t.Fatalf("reconnect resumed=%v reject=%q, want resumed cleanly", got, code)
	}
	// Same input, both bit-exact with plaintext: identical to each other.
	if _, err := inferExact(resumed, model, 3); err != nil {
		t.Fatalf("resumed session: %v", err)
	}

	st := eng.Stats()
	if st.Tickets.Issued != 1 || st.Tickets.Resumed != 1 {
		t.Fatalf("ticket stats issued=%d resumed=%d, want 1/1", st.Tickets.Issued, st.Tickets.Resumed)
	}
	ms := modelStats(t, RegistryStats{Models: st.Models}, "default")
	if ms.TicketsIssued != 1 || ms.Resumes != 1 || ms.ResumeRejects != 0 {
		t.Fatalf("per-model ticket stats %+v, want issued=1 resumes=1 rejects=0", ms)
	}
	for _, ss := range st.Sessions {
		if !ss.Resumed {
			t.Fatalf("live session %d should report Resumed", ss.ID)
		}
	}
}

// TestResumeExpiredTicket: a ticket past its TTL gets the typed
// expired_ticket outcome, the session falls back to full base OTs on the
// same connection, and the fallback issues a fresh ticket that works.
func TestResumeExpiredTicket(t *testing.T) {
	eng, ln := pipeEngine(t, testConfig(t, testModel(t, 62)))

	p := NewPreamble()
	connectPreamble(t, ln, "", p).Close()
	// The client, base-OT chooser under Client-Garbler, can finish setup
	// before the engine publishes the ticket; publish it on the real clock.
	eng.tickets.flush()

	// Lapse the ticket deterministically through the cache's clock seam
	// rather than sleeping against a real TTL.
	skew := DefaultTicketTTL + time.Minute
	eng.tickets.mu.Lock()
	eng.tickets.now = func() time.Time { return time.Now().Add(skew) }
	eng.tickets.mu.Unlock()

	c := connectPreamble(t, ln, "", p)
	if resumed, code := c.ResumeOutcome(); resumed || code != resumeExpiredTicket {
		t.Fatalf("resumed=%v reject=%q, want fallback with %q", resumed, code, resumeExpiredTicket)
	}
	c.Close()
	if st := eng.Stats(); st.Tickets.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", st.Tickets.Expired)
	}

	// The fallback handshake re-issued; an immediate reconnect resumes.
	c2 := connectPreamble(t, ln, "", p)
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("reconnect after re-issue should resume")
	}
}

// TestResumeUnknownTicket: a ticket the engine never issued (or evicted)
// gets unknown_ticket and a clean full-handshake fallback that still
// serves verified inferences.
func TestResumeUnknownTicket(t *testing.T) {
	model := testModel(t, 63)
	eng, ln := pipeEngine(t, testConfig(t, model))

	p := NewPreamble()
	p.mu.Lock()
	p.ticket = []byte("never-issued-by-anyone")
	p.mu.Unlock()

	c := connectPreamble(t, ln, "", p)
	defer c.Close()
	if resumed, code := c.ResumeOutcome(); resumed || code != resumeUnknownTicket {
		t.Fatalf("resumed=%v reject=%q, want fallback with %q", resumed, code, resumeUnknownTicket)
	}
	if _, err := inferExact(c, model, 0); err != nil {
		t.Fatalf("fallback session: %v", err)
	}
	if st := eng.Stats(); st.Tickets.Unknown != 1 {
		t.Fatalf("unknown counter = %d, want 1", st.Tickets.Unknown)
	}
}

// TestResumeDisabled: an engine with resumption off issues no tickets and
// answers presented tickets with the typed resume_disabled fallback.
func TestResumeDisabled(t *testing.T) {
	_, ln := pipeEngine(t, Config{
		Registry:    testRegistry(t, testModel(t, 64)),
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: 2,
		TicketTTL:   -1,
	})

	p := NewPreamble()
	connectPreamble(t, ln, "", p).Close()
	if p.HasTicket() {
		t.Fatal("resumption-disabled engine issued a ticket")
	}

	p.mu.Lock()
	p.ticket = []byte("stale-ticket-from-elsewhere")
	p.mu.Unlock()
	c := connectPreamble(t, ln, "", p)
	defer c.Close()
	if resumed, code := c.ResumeOutcome(); resumed || code != resumeDisabled {
		t.Fatalf("resumed=%v reject=%q, want fallback with %q", resumed, code, resumeDisabled)
	}
}

// TestTicketCacheEvictionUnderBudget: with a budget that holds a single
// ticket, issuing a second evicts the first (LRU); the evicted client
// falls back with unknown_ticket while the resident one still resumes.
// Run with -race this doubles as the cache's concurrency test.
func TestTicketCacheEvictionUnderBudget(t *testing.T) {
	eng, ln := pipeEngine(t, Config{
		Registry:     testRegistry(t, testModel(t, 65)),
		Variant:      delphi.ClientGarbler,
		LPHEWorkers:  2,
		TicketBudget: 1, // any real state exceeds this: only the newest survives
	})

	pa, pb := NewPreamble(), NewPreamble()
	connectPreamble(t, ln, "", pa).Close() // ticket A resident
	connectPreamble(t, ln, "", pb).Close() // ticket B evicts A

	// Newest ticket survives (redeeming does not re-insert, so check B
	// before A's fallback issues — and thereby evicts B with — a new one).
	cb := connectPreamble(t, ln, "", pb)
	if !cb.Resumed() {
		t.Fatal("resident ticket should still resume")
	}
	cb.Close()

	ca := connectPreamble(t, ln, "", pa)
	defer ca.Close()
	if resumed, code := ca.ResumeOutcome(); resumed || code != resumeUnknownTicket {
		t.Fatalf("evicted ticket: resumed=%v reject=%q, want %q", resumed, code, resumeUnknownTicket)
	}

	st := eng.Stats()
	if st.Tickets.Evicted == 0 {
		t.Fatalf("a one-ticket budget across two clients should have evicted: %+v", st.Tickets)
	}
	if st.Tickets.Tickets != 1 {
		// The cache tolerates the newest ticket exceeding the budget (the
		// registry's over-budget-singleton semantics), but never more.
		t.Fatalf("cache holds %d tickets under a one-ticket budget, want 1", st.Tickets.Tickets)
	}
}

// TestTicketCachePrunesExpiredOnInsert: lapsed tickets do not linger in
// memory until someone redeems them — the next insert sweeps them, so
// secret seed material dies with its TTL even for clients that never
// reconnect.
func TestTicketCachePrunesExpiredOnInsert(t *testing.T) {
	tc := testTicketCache(time.Minute, -1)
	state := &delphi.OTResume{}
	base := time.Now()
	now := base
	tc.now = func() time.Time { return now }

	stale := tc.reserve("m")
	tc.insert(stale, state)
	now = base.Add(2 * time.Minute) // past the TTL
	fresh := tc.reserve("m")
	tc.insert(fresh, state)

	st := tc.stats(nil)
	if st.Tickets != 1 {
		t.Fatalf("cache holds %d tickets after prune, want only the fresh one", st.Tickets)
	}
	if st.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1 (the pruned ticket)", st.Expired)
	}
	if _, reject := tc.redeem(stale, "m"); reject != resumeUnknownTicket {
		t.Fatalf("pruned ticket redeems with %q, want %q (already gone)", reject, resumeUnknownTicket)
	}
	if got, reject := tc.redeem(fresh, "m"); got == nil || reject != "" {
		t.Fatalf("fresh ticket rejected with %q", reject)
	}
}

// TestPreambleVersionMismatchRejected: an opening at another wire version —
// a legacy preamble, the release just before this one, or its hello inside
// a current preamble — is rejected with the typed version code (the bare
// hello half of the version gate lives in TestWireVersionMismatchRejected).
func TestPreambleVersionMismatchRejected(t *testing.T) {
	_, ln := startEngine(t, Config{
		Registry:    testRegistry(t, testModel(t, 66)),
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: 2,
	})
	preamble := func(version uint32) []byte { return transport.Preamble{Version: version}.Encode() }
	for _, tc := range []struct {
		name   string
		frames [][]byte
	}{
		{"preamble v2", [][]byte{preamble(2)}},
		{"preamble v4", [][]byte{preamble(4)}},
		{"preamble v5", [][]byte{preamble(5)}},
		{"preamble v6", [][]byte{preamble(6)}},
		{"preamble v7", [][]byte{preamble(7)}},
		{"preamble v8", [][]byte{preamble(8)}},
		{"preamble v9", [][]byte{preamble(9)}},
		{"preamble v10", [][]byte{preamble(10)}},
		{"preamble v11", [][]byte{preamble(11)}},
		{"preamble v12", [][]byte{preamble(12)}},
		{"preamble v13", [][]byte{preamble(13)}},
		{"preamble v14", [][]byte{preamble(14)}},
		{"preamble v15", [][]byte{preamble(15)}},
		{"v5 hello inside a v13 preamble", [][]byte{preamble(13), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 5}))}},
		{"v6 hello inside a v13 preamble", [][]byte{preamble(13), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 6}))}},
		{"v7 hello inside a v13 preamble", [][]byte{preamble(13), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 7}))}},
		{"v8 hello inside a v13 preamble", [][]byte{preamble(13), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 8}))}},
		{"v9 hello inside a v13 preamble", [][]byte{preamble(13), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 9}))}},
		{"v10 hello inside a v13 preamble", [][]byte{preamble(13), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 10}))}},
		{"v11 hello inside a v13 preamble", [][]byte{preamble(13), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 11}))}},
		{"v12 hello inside a v13 preamble", [][]byte{preamble(13), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 12}))}},
		{"v5 hello inside a v14 preamble", [][]byte{preamble(14), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 5}))}},
		{"v6 hello inside a v14 preamble", [][]byte{preamble(14), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 6}))}},
		{"v7 hello inside a v14 preamble", [][]byte{preamble(14), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 7}))}},
		{"v8 hello inside a v14 preamble", [][]byte{preamble(14), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 8}))}},
		{"v9 hello inside a v14 preamble", [][]byte{preamble(14), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 9}))}},
		{"v10 hello inside a v14 preamble", [][]byte{preamble(14), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 10}))}},
		{"v11 hello inside a v14 preamble", [][]byte{preamble(14), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 11}))}},
		{"v12 hello inside a v14 preamble", [][]byte{preamble(14), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 12}))}},
		{"v13 hello inside a v14 preamble", [][]byte{preamble(14), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 13}))}},
		{"v5 hello inside a v15 preamble", [][]byte{preamble(15), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 5}))}},
		{"v6 hello inside a v15 preamble", [][]byte{preamble(15), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 6}))}},
		{"v7 hello inside a v15 preamble", [][]byte{preamble(15), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 7}))}},
		{"v8 hello inside a v15 preamble", [][]byte{preamble(15), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 8}))}},
		{"v9 hello inside a v15 preamble", [][]byte{preamble(15), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 9}))}},
		{"v10 hello inside a v15 preamble", [][]byte{preamble(15), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 10}))}},
		{"v11 hello inside a v15 preamble", [][]byte{preamble(15), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 11}))}},
		{"v12 hello inside a v15 preamble", [][]byte{preamble(15), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 12}))}},
		{"v13 hello inside a v15 preamble", [][]byte{preamble(15), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 13}))}},
		{"v14 hello inside a v15 preamble", [][]byte{preamble(15), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 14}))}},
		{"v5 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 5}))}},
		{"v6 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 6}))}},
		{"v7 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 7}))}},
		{"v8 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 8}))}},
		{"v9 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 9}))}},
		{"v10 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 10}))}},
		{"v11 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 11}))}},
		{"v12 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 12}))}},
		{"v13 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 13}))}},
		{"v14 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 14}))}},
		{"v15 hello inside a v16 preamble", [][]byte{preamble(wireVersion), ctrlFrame(opHello, marshalJSON(helloMsg{Version: 15}))}},
	} {
		conn, err := transport.Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, f := range tc.frames {
			if err := conn.Send(f); err != nil {
				t.Fatal(err)
			}
		}
		op, body, err := recvCtrl(conn)
		if err != nil {
			t.Fatal(err)
		}
		if op != opReject {
			t.Fatalf("%s: got opcode %d, want opReject", tc.name, op)
		}
		var rej rejectMsg
		if err := unmarshalJSON(body, &rej); err != nil {
			t.Fatal(err)
		}
		if rej.Code != rejectVersion {
			t.Fatalf("%s: reject code %q, want %q", tc.name, rej.Code, rejectVersion)
		}
		if !errors.Is(&HandshakeError{Code: rej.Code}, ErrVersionMismatch) {
			t.Fatal("preamble version rejection must map to ErrVersionMismatch")
		}
	}
}

// TestPreambleTicketResumesAcrossModels: one preamble serves sessions on
// several models; the ticket is model-independent, so it resumes across
// them.
func TestPreambleTicketResumesAcrossModels(t *testing.T) {
	mlp := testModel(t, 67)
	cnn, err := nn.DemoCNN(field.New(field.P20), 68)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	if err := reg.Register("mlp", mlp); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("cnn", cnn); err != nil {
		t.Fatal(err)
	}
	eng, ln := pipeEngine(t, Config{
		Registry:    reg,
		Variant:     delphi.ClientGarbler,
		LPHEWorkers: 2,
	})

	p := NewPreamble()
	connectPreamble(t, ln, "mlp", p).Close() // full handshake, ticket issued
	c := connectPreamble(t, ln, "cnn", p)    // other model, same ticket
	defer c.Close()
	if !c.Resumed() {
		t.Fatal("the ticket is model-independent; a session on another model should resume")
	}
	if p.SizeBytes() == 0 {
		t.Fatal("preamble reports zero footprint while holding a ticket")
	}

	st := eng.Stats()
	mcnn := modelStats(t, RegistryStats{Models: st.Models}, "cnn")
	if mcnn.Resumes != 1 {
		t.Fatalf("cnn resume counter = %d, want 1", mcnn.Resumes)
	}
}

// TestPreambleTicketResumesAcrossFields: the ticket resumes on a model over
// another plaintext field too. The preamble's key pair is under the first
// model's parameters, so the resumed session draws a pair of its own
// rather than failing, and infers bit-exact.
func TestPreambleTicketResumesAcrossFields(t *testing.T) {
	p20 := testModel(t, 67)
	p17, err := nn.DemoMLP(field.New(field.P17), 68)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	t.Cleanup(reg.Close)
	if err := reg.Register("p20", p20); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("p17", p17); err != nil {
		t.Fatal(err)
	}
	_, ln := pipeEngine(t, Config{Registry: reg, Variant: delphi.ClientGarbler, LPHEWorkers: 2})

	p := NewPreamble()
	cold := connectPreamble(t, ln, "p20", p)
	inferOnce(t, cold, p20)
	cold.Close()
	c := connectPreamble(t, ln, "p17", p)
	defer c.Close()
	if !c.Resumed() {
		t.Fatal("the ticket is model-independent; a session on a model over another field should resume")
	}
	inferOnce(t, c, p17)
}
