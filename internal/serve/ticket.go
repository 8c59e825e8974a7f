package serve

import (
	"container/list"
	"crypto/rand"
	"io"
	"sync"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/obs"
)

// Resumption ticket cache defaults (see Config.TicketTTL / TicketBudget).
const (
	// DefaultTicketTTL is how long an issued resumption ticket stays
	// redeemable when Config.TicketTTL is zero. Redeeming slides the
	// window, so an active client never falls off the fast path.
	DefaultTicketTTL = 15 * time.Minute
	// DefaultTicketBudget caps the cache's resident ticket state when
	// Config.TicketBudget is zero. A ticket holds OT seeds only, ≈ 4 KB
	// under Client-Garbler (the OT receiver state) and ≈ 2 KB under
	// Server-Garbler, so 4 MiB holds ≈ 1,000 Client-Garbler clients.
	DefaultTicketBudget int64 = 4 << 20
)

// ticketIDBytes is the opaque ticket identifier length. 16 random bytes
// keep blind guessing hopeless (the ticket is a bearer credential for the
// cached OT correlation).
const ticketIDBytes = 16

// ticketCache is the server half of the OT resumption cache: it maps
// opaque tickets to the engine's cached base-OT seed material
// (delphi.OTResume), bounded by a TTL and a byte budget with LRU eviction
// — the same budget discipline the model registry applies to artifacts,
// applied to per-client correlation state. All methods are safe for
// concurrent use.
type ticketCache struct {
	mu     sync.Mutex
	ttl    time.Duration
	budget int64 // <= 0 unbounded
	bytes  int64

	entries map[string]*ticketEntry
	lru     *list.List // of *ticketEntry; front = most recently used

	// pending holds reserved tickets whose full handshake is still making
	// their seeds; settled (on mu) is broadcast as each one settles. The
	// welcome hands the ticket out first, and a Client-Garbler client, the
	// base-OT chooser, sends the last setup flight and may reconnect while
	// the engine still derives its seeds from it: redeem waits for the
	// settle instead of answering unknown_ticket.
	pending map[string]bool
	settled *sync.Cond

	// now is a test seam for expiry.
	now func() time.Time

	// entropy draws ticket identifiers. Tickets are bearer credentials for
	// cached OT correlation, so they come from the same injected source as
	// the session's other secret material.
	entropy io.Reader

	// store is the optional disk half (nil = memory-only): live tickets are
	// written through so a restarted engine keeps serving the resumed fast
	// path. Disk operations ride the disk queue's background worker, so
	// insert and redeem never block on I/O (and never perform I/O under
	// tc.mu).
	store *ticketStore
	disk  *writeBehind

	// events is the engine's pi_tickets_total{model,event}: the one place
	// the cache's traffic is counted, partitioned by the model the session
	// requested (the seed material itself is model-independent — one
	// ticket serves every model the engine hosts — so events no hello
	// caused carry model="").
	events *obs.CounterVec
}

// ticketEntry is one cached client correlation: its OT state, whose
// SizeBytes is what the entry holds resident.
type ticketEntry struct {
	id      string
	state   *delphi.OTResume
	expires time.Time
	elem    *list.Element
}

func newTicketCache(ttl time.Duration, budget int64, entropy io.Reader, events *obs.CounterVec) *ticketCache {
	if ttl == 0 {
		ttl = DefaultTicketTTL
	}
	if budget == 0 {
		budget = DefaultTicketBudget
	}
	tc := &ticketCache{
		ttl:     ttl,
		budget:  budget,
		entries: map[string]*ticketEntry{},
		pending: map[string]bool{},
		lru:     list.New(),
		now:     time.Now,
		entropy: entropy,
		events:  events,
	}
	tc.disk = newWriteBehind(&tc.mu)
	tc.settled = sync.NewCond(&tc.mu)
	return tc
}

// randomID returns 16 fresh random bytes from src — a ticket identifier or
// one party's half of a resumption nonce. A nil src falls back to the
// system RNG.
func randomID(src io.Reader) []byte {
	if src == nil {
		src = rand.Reader
	}
	id := make([]byte, ticketIDBytes)
	if _, err := io.ReadFull(src, id); err != nil {
		// Tickets are an optimization; a broken entropy source should fail
		// the session's real cryptography, not be papered over here.
		panic("serve: ticket id entropy: " + err.Error())
	}
	return id
}

// joinNonce concatenates the two parties' nonce halves into the value the
// OT layer derives per-session streams from.
func joinNonce(client, server []byte) []byte {
	out := make([]byte, 0, len(client)+len(server))
	out = append(out, client...)
	return append(out, server...)
}

// reserve generates a fresh opaque ticket identifier for a full handshake
// on model, counts it issued and marks it pending. The entry is not in the
// cache yet — the welcome carries the ticket before the OT setup that
// produces its seed material completes; insert publishes it afterwards.
// Every reservation ends in settle.
func (tc *ticketCache) reserve(model string) []byte {
	id := randomID(tc.entropy)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.pending[string(id)] = true
	tc.events.With(model, ticketIssued).Inc()
	return id
}

// settle ends a reservation, whether or not insert published it, and wakes
// every redeem waiting on it. Settling twice is harmless.
func (tc *ticketCache) settle(id []byte) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	delete(tc.pending, string(id))
	tc.settled.Broadcast()
}

// insert publishes seed material under a reserved ticket and evicts LRU
// entries past the byte budget (never the one just inserted).
func (tc *ticketCache) insert(id []byte, state *delphi.OTResume) {
	defer tc.settle(id)
	if state == nil {
		return
	}
	e := &ticketEntry{
		id:      string(id),
		state:   state,
		expires: tc.now().Add(tc.ttl),
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	// Prune lapsed tickets eagerly: secret correlation seeds must not
	// outlive their TTL just because the holder never reconnects and the
	// byte budget never bites. Inserts happen at most once per full
	// handshake, whose base OTs and HE keygen take tens of milliseconds,
	// and the default budget holds about a thousand entries, so the scan
	// costs microseconds against that.
	// Not-Before, not After: a ticket is dead AT its expiry instant, the
	// same boundary redeem enforces.
	now := tc.now()
	for _, old := range tc.entries {
		if !now.Before(old.expires) {
			tc.drop(old)
			tc.events.With("", ticketExpired).Inc()
		}
	}
	if old, ok := tc.entries[e.id]; ok {
		// A reserved id collided with a live entry (astronomically unlikely);
		// drop the old one rather than double-count.
		tc.drop(old)
	}
	tc.entries[e.id] = e
	e.elem = tc.lru.PushFront(e)
	tc.bytes += e.state.SizeBytes()
	tc.evictOver()
	tc.enqueueSave(e)
}

// evictOver drops least-recently-used tickets until the byte budget holds.
// The most recently used entry — on insert, the one just published —
// always survives, so a single over-budget ticket never empties the cache
// outright. Caller holds tc.mu.
func (tc *ticketCache) evictOver() {
	for tc.budget > 0 && tc.bytes > tc.budget && tc.lru.Len() > 1 {
		tc.drop(tc.lru.Back().Value.(*ticketEntry))
		tc.events.With("", ticketEvicted).Inc()
	}
}

// redeem exchanges a presented ticket for its cached seed material. On
// success it returns it, refreshes the TTL (a sliding window), and bumps
// the LRU; otherwise it returns the typed welcome reject code.
// The entry survives redemption — one ticket serves every reconnect until
// it expires or is evicted.
func (tc *ticketCache) redeem(id []byte, model string) (*delphi.OTResume, string) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for tc.pending[string(id)] {
		tc.settled.Wait()
	}
	e, ok := tc.entries[string(id)]
	if !ok {
		tc.events.With(model, ticketUnknown).Inc()
		return nil, resumeUnknownTicket
	}
	// A ticket is dead AT its expiry instant: a lookup at exactly t = TTL
	// is a typed expiry, not a hit. The not-Before form (rather than
	// After) pins that boundary — it must hold identically in the eager
	// insert prune and the store's load sweep, or a ticket that would be
	// rejected live could resurrect through a restart.
	if !tc.now().Before(e.expires) {
		tc.drop(e)
		tc.events.With(model, ticketExpired).Inc()
		return nil, resumeExpiredTicket
	}
	// A state that cannot resume is as dead as a lapsed one.
	if !e.state.Resumable() {
		tc.drop(e)
		tc.events.With(model, ticketExpired).Inc()
		return nil, resumeColourBit
	}
	e.expires = tc.now().Add(tc.ttl)
	tc.lru.MoveToFront(e.elem)
	tc.events.With(model, ticketResumed).Inc()
	// The slid expiry is durable state: re-persist so a restart honors the
	// refreshed window rather than the stale one on disk.
	tc.enqueueSave(e)
	return e.state, ""
}

// drop unlinks an entry and queues the deletion of its disk record —
// however a ticket dies (expiry, eviction), its secret
// seeds leave the disk with it. Caller holds tc.mu.
func (tc *ticketCache) drop(e *ticketEntry) {
	delete(tc.entries, e.id)
	tc.lru.Remove(e.elem)
	tc.bytes -= e.state.SizeBytes()
	if store, id := tc.store, []byte(e.id); store != nil {
		tc.persist(func() error { return store.remove(id) })
	}
}

// enqueueSave queues a write-through of a live entry. The record is
// snapshotted here, under tc.mu (the OT state itself is immutable), so the
// worker writes this instant's expiry even if the entry slides afterwards.
// Caller holds tc.mu.
func (tc *ticketCache) enqueueSave(e *ticketEntry) {
	if store := tc.store; store != nil {
		rec := ticketRecord{id: []byte(e.id), expires: e.expires, state: e.state}
		tc.persist(func() error { return store.save(rec) })
	}
}

// persist queues one disk operation; jobs apply in queue order, so a
// ticket's file always converges to the cache's final state for that id.
// The outcome folds into the persist counters. Caller holds tc.mu.
func (tc *ticketCache) persist(run func() error) {
	tc.disk.enqueue(writeJob{run: run, done: func(err error) {
		if err != nil {
			tc.events.With("", ticketPersistError).Inc()
		} else {
			tc.events.With("", ticketPersisted).Inc()
		}
	}})
}

// flush blocks until every ticket reserved so far has settled and every
// queued background disk write has completed — the barrier clean shutdown
// (and tests) use before trusting the store's contents or the persist
// counters.
func (tc *ticketCache) flush() {
	tc.mu.Lock()
	for len(tc.pending) > 0 {
		tc.settled.Wait()
	}
	tc.mu.Unlock()
	tc.disk.flush()
}

// attachStore wires the disk half in and reloads its surviving records:
// the restarted engine's live tickets, minus those whose TTL lapsed while
// it was down (swept, counted expired) and those that fail verification
// (deleted, counted as load errors — the affected clients fall back to a
// fresh handshake). Loaded entries join the LRU behind anything already
// live and are evicted past the byte budget like any others. The load runs
// before tc.store is installed, outside tc.mu — startup I/O never blocks
// under the cache lock.
func (tc *ticketCache) attachStore(ts *ticketStore) {
	tc.mu.Lock()
	now := tc.now()
	tc.mu.Unlock()
	recs, st := ts.loadAll(now)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.store = ts
	tc.events.With("", ticketLoaded).Add(uint64(st.loaded))
	tc.events.With("", ticketLoadError).Add(uint64(st.corrupt))
	tc.events.With("", ticketExpired).Add(uint64(st.expired))
	for _, rec := range recs {
		if _, ok := tc.entries[string(rec.id)]; ok {
			// A live entry outranks its own stale disk copy.
			continue
		}
		e := &ticketEntry{
			id:      string(rec.id),
			state:   rec.state,
			expires: rec.expires,
		}
		tc.entries[e.id] = e
		e.elem = tc.lru.PushBack(e)
		tc.bytes += e.state.SizeBytes()
	}
	tc.evictOver()
}

// TicketStats is a resumption-cache metrics snapshot.
type TicketStats struct {
	// TTL and Budget are the configured limits; Tickets and Bytes the
	// current cache occupancy.
	TTL     time.Duration
	Budget  int64
	Tickets int
	Bytes   int64
	// Issued counts tickets handed out on full handshakes; Resumed counts
	// successful redemptions (base OTs skipped); Expired counts lapsed
	// tickets (typed rejection at redeem, pruned eagerly on the next
	// insert, or swept at load for lapsing while the engine was down) and
	// Unknown the never-issued/evicted rejections; Evicted counts
	// budget-pressure drops.
	Issued, Resumed, Expired, Unknown, Evicted uint64
	// Durability counters (all zero without a ticket store). Loaded counts
	// records reloaded across a restart; LoadErrors counts on-disk records
	// deleted for failing verification; Persisted counts completed
	// background disk operations (write-throughs and deletions) and
	// PersistErrors the ones that failed (the ticket stays live in memory
	// either way).
	Loaded, LoadErrors, Persisted, PersistErrors uint64
}

// stats reads the cache's occupancy and its event counters: each event's
// total over models into the snapshot, and the events a model's sessions
// caused into that model's row of byModel.
func (tc *ticketCache) stats(byModel map[string]*ModelStats) TicketStats {
	tc.mu.Lock()
	st := TicketStats{TTL: tc.ttl, Budget: tc.budget, Tickets: len(tc.entries), Bytes: tc.bytes}
	tc.mu.Unlock()
	total := map[string]*uint64{
		ticketIssued: &st.Issued, ticketResumed: &st.Resumed, ticketExpired: &st.Expired,
		ticketUnknown: &st.Unknown, ticketEvicted: &st.Evicted, ticketLoaded: &st.Loaded,
		ticketLoadError: &st.LoadErrors, ticketPersisted: &st.Persisted, ticketPersistError: &st.PersistErrors,
	}
	tc.events.Each(func(lv []string, c *obs.Counter) {
		model, event, n := lv[0], lv[1], c.Value()
		*total[event] += n
		if ms := byModel[model]; ms != nil {
			switch event {
			case ticketIssued:
				ms.TicketsIssued += n
			case ticketResumed:
				ms.Resumes += n
			case ticketUnknown, ticketExpired:
				ms.ResumeRejects += n
			}
		}
	})
	return st
}
