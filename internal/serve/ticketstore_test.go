package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/bin"
	"privinf/internal/delphi"
	"privinf/internal/obs"
	"privinf/internal/ot"
)

// testOTResume builds a deterministic sender-side OT resumption state from
// a seed byte — real enough for the codecs (exact sizes, valid flags)
// without running base OTs.
func testOTResume(t testing.TB, seed byte) *delphi.OTResume {
	t.Helper()
	raw := make([]byte, 1+ot.SenderStateBytes)
	raw[0] = 1 // sender flag
	for i := 1; i < len(raw); i++ {
		raw[i] = byte(int(seed) + i)
	}
	res, err := delphi.UnmarshalOTResume(raw)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// liveOTResume is testOTResume with s's lsb set, as a full handshake has
// made every sender state since wire v16, so that redeem takes it.
func liveOTResume(t testing.TB, seed byte) *delphi.OTResume {
	t.Helper()
	raw, err := testOTResume(t, seed).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	raw[1] |= 1 // the flags byte, then s
	res, err := delphi.UnmarshalOTResume(raw)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// testTicketRecord builds a record with a deterministic id derived from
// seed.
func testTicketRecord(t testing.TB, seed byte, expires time.Time) ticketRecord {
	t.Helper()
	id := make([]byte, ticketIDBytes)
	for i := range id {
		id[i] = byte(int(seed)*17 + i)
	}
	return ticketRecord{id: id, expires: expires, state: testOTResume(t, seed)}
}

// TestTicketRecordCodecRejectsDamage: the payload codec errors — never
// panics, never half-accepts — on trailing bytes, a wrong-size id, and
// damaged OT state flags (every-prefix truncation is a battery column).
func TestTicketRecordCodecRejectsDamage(t *testing.T) {
	payload, err := marshalTicketRecord(testTicketRecord(t, 4, time.Now()))
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := unmarshalTicketRecord(payload); err != nil || rec.state == nil {
		t.Fatalf("pristine payload rejected: %v", err)
	}

	if _, err := unmarshalTicketRecord(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	shortID := testTicketRecord(t, 5, time.Now())
	shortID.id = shortID.id[:8]
	raw, err := marshalTicketRecord(shortID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unmarshalTicketRecord(raw); err == nil {
		t.Fatal("8-byte ticket id accepted")
	}

	badFlags := append([]byte(nil), payload...)
	badFlags[8+8+ticketIDBytes+8] = 0xFF // OT state flags byte
	if _, err := unmarshalTicketRecord(badFlags); err == nil {
		t.Fatal("hostile OT state flags accepted")
	}

	if _, err := marshalTicketRecord(ticketRecord{id: shortID.id}); err == nil {
		t.Fatal("nil OT state marshaled")
	}

	// A wire-v13 record ends in the client's key: it loads with its id,
	// expiry and OT state intact and re-saves keyless. The key must still
	// be a whole seeded key, every b coefficient below q.
	v13 := testTicketRecord(t, 6, time.Unix(0, 1234567890))
	keyless, err := marshalTicketRecord(v13)
	if err != nil {
		t.Fatal(err)
	}
	raw = withTicketKey(t, keyless)
	rec, err := unmarshalTicketRecord(raw)
	if err != nil {
		t.Fatalf("keyed v13 record rejected: %v", err)
	}
	if !bytes.Equal(rec.id, v13.id) || !rec.expires.Equal(v13.expires) || !reflect.DeepEqual(rec.state, v13.state) {
		t.Fatal("keyed v13 record lost its id, expiry or OT state")
	}
	if resaved, err := marshalTicketRecord(rec); err != nil || !bytes.Equal(resaved, keyless) {
		t.Fatalf("keyed v13 record re-saved as %d bytes, want the %d keyless ones (err %v)", len(resaved), len(keyless), err)
	}
	partial := binary.LittleEndian.AppendUint64(append([]byte(nil), keyless...), bfv.SeedSize+4)
	if _, err := unmarshalTicketRecord(append(partial, make([]byte, bfv.SeedSize+4)...)); err == nil {
		t.Fatal("ticket key of a partial coefficient accepted")
	}
	notCanonical := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(notCanonical[len(notCanonical)-8:], ^uint64(0))
	if _, err := unmarshalTicketRecord(notCanonical); err == nil {
		t.Fatal("ticket key with a coefficient ≥ q accepted")
	}
}

// withTicketKey appends a fixed seeded public key of the golden degree to
// a record payload, as a wire-v13 engine wrote its tickets.
func withTicketKey(t testing.TB, payload []byte) []byte {
	t.Helper()
	_, pk := bfv.KeyGen(goldenParams(t), &seqEntropy{})
	key, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	w := bin.Writer{Buf: append([]byte(nil), payload...)}
	w.Blob(key)
	return w.Buf
}

// TestTicketStoreLoadSweeps: loadAll returns only the live records and
// deletes the rest. Records whose TTL lapsed while the engine was down are
// swept — including one expiring at exactly the load instant, the same
// dead-AT-expiry boundary redeem enforces, so a ticket that would be
// rejected live cannot resurrect via a restart — and records that fail
// verification (damaged, or written under another format version) are
// deleted and counted instead of resurfacing the error on every restart.
func TestTicketStoreLoadSweeps(t *testing.T) {
	ts, err := newTicketStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().Round(0)
	lapsed := testTicketRecord(t, 9, now.Add(-time.Minute))
	boundary := testTicketRecord(t, 10, now)
	live := testTicketRecord(t, 11, now.Add(time.Minute))
	flipped := testTicketRecord(t, 12, now.Add(time.Minute))
	skewed := testTicketRecord(t, 13, now.Add(time.Minute))
	dead := []ticketRecord{lapsed, boundary, flipped, skewed}
	for _, rec := range append(dead, live) {
		if err := ts.save(rec); err != nil {
			t.Fatal(err)
		}
	}
	rewriteFile(t, ts.path(flipped.id), func(b []byte) []byte {
		b[storeHeaderBytes+8] ^= 0x40
		return b
	})
	rewriteFile(t, ts.path(skewed.id), func(b []byte) []byte {
		b[4] = ticketFormatVersion + 1
		return b
	})

	recs, st := ts.loadAll(now)
	if st.loaded != 1 || st.expired != 2 || st.corrupt != 2 {
		t.Fatalf("load stats %+v, want loaded=1 expired=2 corrupt=2", st)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].id, live.id) || !recs[0].expires.Equal(live.expires) {
		t.Fatal("survivor is not the live record with its nanosecond-exact expiry")
	}
	for _, rec := range dead {
		if _, err := os.Stat(ts.path(rec.id)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("dead record %x left on disk", rec.id)
		}
	}
}

// testTicketCache builds a cache that counts on a registry of its own.
func testTicketCache(ttl time.Duration, budget int64) *ticketCache {
	return newTicketCache(ttl, budget, nil, obs.NewRegistry().CounterVec(metricTicketsTotal, "", "model", "event"))
}

// TestTicketCacheWriteThrough: inserts and redeems write through to the
// attached store in the background (flush joins), a redeem's slid expiry
// replaces the stale one on disk, and a ticket's death (here: expiry at
// redeem) deletes the record file.
func TestTicketCacheWriteThrough(t *testing.T) {
	dir := t.TempDir()
	ts, err := newTicketStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tc := testTicketCache(time.Minute, -1)
	base := time.Now().Round(0)
	now := base
	tc.mu.Lock()
	tc.now = func() time.Time { return now }
	tc.mu.Unlock()
	tc.attachStore(ts)

	id := tc.reserve("m")
	tc.insert(id, liveOTResume(t, 13))
	tc.flush()
	if _, err := os.Stat(ts.path(id)); err != nil {
		t.Fatalf("insert did not write through: %v", err)
	}
	st := tc.stats(nil)
	if st.Persisted == 0 || st.PersistErrors != 0 {
		t.Fatalf("persist counters %+v after write-through", st)
	}

	// Redeem slides the expiry; the disk record must carry the slid window.
	now = base.Add(30 * time.Second)
	if _, reject := tc.redeem(id, "m"); reject != "" {
		t.Fatalf("redeem rejected with %q", reject)
	}
	tc.flush()
	recs, _ := ts.loadAll(now)
	if len(recs) != 1 {
		t.Fatalf("store holds %d records after redeem, want 1", len(recs))
	}
	if want := now.Add(time.Minute); !recs[0].expires.Equal(want) {
		t.Fatalf("disk expiry %v, want slid %v", recs[0].expires, want)
	}

	now = now.Add(time.Minute) // exactly the slid expiry: dead
	if _, reject := tc.redeem(id, "m"); reject != resumeExpiredTicket {
		t.Fatalf("redeem at expiry = %q, want %q", reject, resumeExpiredTicket)
	}
	tc.flush()
	if _, err := os.Stat(ts.path(id)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("the dead ticket's record was left on disk")
	}
}

// TestTicketCacheReloadAcrossRestart: a second cache attached to the same
// directory reloads the first cache's live tickets and redeems them with
// the original seed bytes.
func TestTicketCacheReloadAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, err := newTicketStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tc1 := testTicketCache(time.Hour, -1)
	tc1.attachStore(ts1)
	state := testOTResume(t, 14)
	id := tc1.reserve("m")
	tc1.insert(id, state)
	tc1.flush()

	ts2, err := newTicketStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tc2 := testTicketCache(time.Hour, -1)
	tc2.attachStore(ts2)
	defer tc2.flush() // the redeem's write-behind save must land before TempDir cleanup
	st := tc2.stats(nil)
	if st.Loaded != 1 || st.LoadErrors != 0 || st.Tickets != 1 {
		t.Fatalf("restarted cache stats %+v, want one loaded ticket", st)
	}
	got, reject := tc2.redeem(id, "m")
	if reject != "" {
		t.Fatalf("reloaded ticket rejected with %q", reject)
	}
	gotRaw, _ := got.MarshalBinary()
	wantRaw, _ := state.MarshalBinary()
	if !bytes.Equal(gotRaw, wantRaw) {
		t.Fatal("reloaded seed material diverged from the original")
	}
}

// TestTicketCacheLoadRespectsBudget: records loaded at attach are subject
// to the same byte budget as live inserts, and a live entry outranks its
// own stale disk copy.
func TestTicketCacheLoadRespectsBudget(t *testing.T) {
	dir := t.TempDir()
	ts, err := newTicketStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for seed := byte(20); seed < 24; seed++ {
		if err := ts.save(testTicketRecord(t, seed, time.Now().Add(time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
	tc := testTicketCache(time.Hour, 1) // any real state exceeds 1 byte
	tc.attachStore(ts)
	defer tc.flush() // the evictions' disk removes must land before TempDir cleanup
	st := tc.stats(nil)
	if st.Loaded != 4 {
		t.Fatalf("loaded %d records, want 4", st.Loaded)
	}
	if st.Tickets != 1 || st.Evicted != 3 {
		t.Fatalf("stats %+v, want budget to keep 1 of the 4 loaded", st)
	}

	// Live entry vs stale disk copy: the resident state wins.
	live := testOTResume(t, 30)
	diskState := testOTResume(t, 31)
	tc2 := testTicketCache(time.Hour, -1)
	id := tc2.reserve("m")
	tc2.insert(id, live)
	dir2 := t.TempDir()
	ts2, err := newTicketStore(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts2.save(ticketRecord{id: id, expires: time.Now().Add(time.Hour), state: diskState}); err != nil {
		t.Fatal(err)
	}
	tc2.attachStore(ts2)
	defer tc2.flush() // so must the redeem's write-behind save
	got, reject := tc2.redeem(id, "m")
	if reject != "" {
		t.Fatalf("redeem rejected with %q", reject)
	}
	gotRaw, _ := got.MarshalBinary()
	liveRaw, _ := live.MarshalBinary()
	if !bytes.Equal(gotRaw, liveRaw) {
		t.Fatal("stale disk copy displaced the live entry")
	}
}

// TestTicketExpiryAtExactTTLBoundary is the regression test for the
// sliding-expiry edge: a redeem at exactly t = expiry is a typed
// expired_ticket, not a hit — the ticket is dead AT its expiry instant.
// Before the not-Before fix, redeem used After and the boundary lookup
// resumed from a ticket the insert prune (and the restart load sweep)
// would already have declared dead.
func TestTicketExpiryAtExactTTLBoundary(t *testing.T) {
	tc := testTicketCache(time.Minute, -1)
	base := time.Now().Round(0)
	now := base
	tc.mu.Lock()
	tc.now = func() time.Time { return now }
	tc.mu.Unlock()

	id := tc.reserve("m")
	tc.insert(id, testOTResume(t, 40))

	// One instant before the boundary: still a hit (and the hit slides the
	// window from this now).
	now = base.Add(time.Minute - time.Nanosecond)
	if _, reject := tc.redeem(id, "m"); reject != "" {
		t.Fatalf("redeem just inside the TTL rejected with %q", reject)
	}

	// Exactly at the slid expiry: dead, typed, and dropped.
	now = now.Add(time.Minute)
	if state, reject := tc.redeem(id, "m"); state != nil || reject != resumeExpiredTicket {
		t.Fatalf("redeem at t=TTL: state=%v reject=%q, want typed %q", state, reject, resumeExpiredTicket)
	}
	st := tc.stats(nil)
	if st.Expired != 1 || st.Tickets != 0 {
		t.Fatalf("stats %+v after boundary expiry, want expired=1 tickets=0", st)
	}
	// And it stays dead: the drop is permanent, not a transient reject.
	if _, reject := tc.redeem(id, "m"); reject != resumeUnknownTicket {
		t.Fatalf("second redeem = %q, want %q (entry dropped)", reject, resumeUnknownTicket)
	}
}

// TestRedeemWaitsForPendingTicket: a ticket handed out in a welcome whose
// handshake is still making its seeds is not unknown. A redeem that arrives
// meanwhile waits for the settle: it resumes once the handshake publishes
// the state, and answers unknown_ticket if the handshake gave up; flush
// returns only after both have settled.
func TestRedeemWaitsForPendingTicket(t *testing.T) {
	tc := testTicketCache(time.Hour, -1)
	state := testOTResume(t, 50)
	published, abandoned := tc.reserve("m"), tc.reserve("m")
	type outcome struct {
		state  *delphi.OTResume
		reject string
	}
	got := make([]chan outcome, 2)
	for i, id := range [][]byte{published, abandoned} {
		got[i] = make(chan outcome, 1)
		go func() {
			st, reject := tc.redeem(id, "m")
			got[i] <- outcome{st, reject}
		}()
	}
	flushed := make(chan struct{})
	go func() {
		tc.flush()
		close(flushed)
	}()
	tc.insert(published, state)
	tc.settle(abandoned)
	if o := <-got[0]; o.state != state || o.reject != "" {
		t.Fatalf("redeem of the published ticket = %v, %q; want its state", o.state, o.reject)
	}
	if o := <-got[1]; o.state != nil || o.reject != resumeUnknownTicket {
		t.Fatalf("redeem of the abandoned ticket = %v, %q; want %q", o.state, o.reject, resumeUnknownTicket)
	}
	<-flushed
	if st := tc.stats(nil); st.Issued != 2 || st.Resumed != 1 || st.Unknown != 1 {
		t.Fatalf("ticket stats %+v, want issued 2 (at hand-out), resumed 1, unknown 1", st)
	}
}
