package serve

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"

	"privinf/internal/bfv"
	"privinf/internal/delphi"
	"privinf/internal/nn"
	"privinf/internal/obs"
)

// Registry is the engine's named-model artifact cache: it maps model names
// to delphi.SharedModel artifacts and holds the built artifacts under a
// byte budget with LRU eviction — the same budget discipline the
// pre-compute scheduler applies to client storage, applied to the server's
// own encoded-model footprint.
//
// A model is registered once (Register for a lazy build on first request,
// RegisterArtifact for a pre-built artifact) and can then be requested by
// any number of sessions. Eviction drops only the registry's reference: a
// SharedModel is immutable, so sessions already serving from an evicted
// artifact keep working, and its memory is reclaimed when the last such
// session disconnects. The next request for an evicted name re-resolves the
// artifact, which counts as a miss.
//
// A registry may be backed by an ArtifactStore (NewRegistryWithStore), in
// which case the miss path tries a disk load before paying a build (a
// reload), every freshly built artifact is written through to disk (a
// spill), and eviction becomes spill/reload instead of drop/re-encode.
// Store failures never fail a Get: a damaged or stale file is counted
// (LoadErrors) and the artifact is rebuilt; a failed write is counted
// (SpillErrors) and the artifact is served from memory as usual.
//
// All methods are safe for concurrent use. Loads and builds run outside
// the registry lock — a cold resolve on one model never blocks hits on
// others — and concurrent requests for the same cold model share one
// resolve (single-flight).
type Registry struct {
	// budget caps total resident artifact bytes; <= 0 means unbounded. The
	// artifact being returned by a Get is never evicted by that Get, so a
	// single artifact larger than the budget is still served (the registry
	// then temporarily holds just that artifact, over budget).
	budget int64
	// store is the optional disk layer; nil means memory-only (eviction
	// drops, misses rebuild).
	store *ArtifactStore

	// resolveHook, when non-nil, runs at the start of every miss-path
	// resolve, outside the registry lock (test seam: tests block here to
	// hold a resolve in flight and assert other models stay servable).
	resolveHook func(name string)

	mu      sync.Mutex
	entries map[string]*regEntry
	lru     *list.List // of *regEntry; front = most recently used resident
	bytes   int64

	// disk is the background spill writer: disk writes (write-through after
	// a build, spill-before-drop at eviction) ride its worker, so neither
	// the miss path nor an evicting Get waits on the disk.
	disk *writeBehind

	// events is pi_registry_total{model,event} on an obs registry this
	// artifact registry owns: N engines sharing the registry count its
	// events once, and Stats reads the same counters /metrics exports.
	// retire folds them into the process view; Close calls it.
	events *obs.CounterVec
	retire func()
}

// regEntry is one registered model. The source model persists for the life
// of the registry; the built artifact comes and goes with LRU eviction.
type regEntry struct {
	name  string
	model *nn.Lowered

	art  *delphi.SharedModel
	size int64
	elem *list.Element // non-nil iff art != nil
	// pinned exempts the artifact from LRU eviction (Registry.Pin).
	pinned bool
	// spilled records that the store holds a current copy of the artifact,
	// so eviction can drop the memory without a disk write. spilling marks
	// a deferred spill job already queued but not yet written, so a
	// concurrent eviction does not queue (and count) a duplicate write of
	// the same artifact.
	spilled, spilling bool

	building bool
	ready    chan struct{} // closed when an in-flight resolve finishes

	// The model's children of pi_registry_total, resolved at registration.
	hit, miss, eviction, spill, reload, loadError, spillError *obs.Counter
}

// NewRegistry returns an empty memory-only registry holding built artifacts
// under budgetBytes (<= 0 means unbounded).
func NewRegistry(budgetBytes int64) *Registry {
	return NewRegistryWithStore(budgetBytes, nil)
}

// NewRegistryWithStore returns an empty registry backed by an optional
// artifact store (nil store means memory-only). With a store, misses try a
// disk load before building, built artifacts are written through to disk,
// and eviction spills instead of dropping.
func NewRegistryWithStore(budgetBytes int64, store *ArtifactStore) *Registry {
	reg, retire := mount()
	r := &Registry{
		budget:  budgetBytes,
		store:   store,
		entries: map[string]*regEntry{},
		lru:     list.New(),
		events:  reg.CounterVec(metricRegistryTotal, "Model artifact registry events: hit, miss, eviction, spill, reload, load_error, spill_error.", "model", "event"),
		retire:  retire,
	}
	r.disk = newWriteBehind(&r.mu)
	return r
}

// Store returns the registry's artifact store (nil when memory-only).
func (r *Registry) Store() *ArtifactStore { return r.store }

// Register adds a named model whose artifact is resolved lazily on first
// request (and re-resolved after eviction): loaded from the store when a
// valid file exists, built otherwise.
func (r *Registry) Register(name string, model *nn.Lowered) error {
	if name == "" {
		return fmt.Errorf("serve: registry: empty model name")
	}
	if model == nil {
		return fmt.Errorf("serve: registry: nil model %q", name)
	}
	if err := model.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("serve: registry: model %q already registered", name)
	}
	r.entries[name] = r.newEntry(name, model)
	return nil
}

// RegisterArtifact adds a named model with a pre-built artifact, resident
// immediately. The artifact still participates in LRU eviction; its source
// model is retained so it can be re-resolved lazily afterwards. With a
// store, the artifact's write-through is queued on the background spill
// writer; call Flush to wait for it when durability matters before the
// next Get (Engine.Close drains it on clean shutdown).
func (r *Registry) RegisterArtifact(name string, art *delphi.SharedModel) error {
	if name == "" {
		return fmt.Errorf("serve: registry: empty model name")
	}
	if art == nil {
		return fmt.Errorf("serve: registry: nil artifact %q", name)
	}
	r.mu.Lock()
	if _, ok := r.entries[name]; ok {
		r.mu.Unlock()
		return fmt.Errorf("serve: registry: model %q already registered", name)
	}
	e := r.newEntry(name, art.Model())
	r.entries[name] = e
	r.admit(e, art)
	r.mu.Unlock()
	return nil
}

func (r *Registry) newEntry(name string, model *nn.Lowered) *regEntry {
	return &regEntry{
		name:       name,
		model:      model,
		hit:        r.events.With(name, "hit"),
		miss:       r.events.With(name, "miss"),
		eviction:   r.events.With(name, "eviction"),
		spill:      r.events.With(name, "spill"),
		reload:     r.events.With(name, "reload"),
		loadError:  r.events.With(name, "load_error"),
		spillError: r.events.With(name, "spill_error"),
	}
}

// Pin exempts a registered model's artifact from LRU eviction, so the
// engine's highest-traffic entries never pay the cold-rebuild latency
// spike. Pinned artifacts still count against the byte budget; a registry
// whose pinned set exceeds the budget simply stays over it.
func (r *Registry) Pin(name string) error {
	return r.setPinned(name, true)
}

// Unpin returns a pinned model to normal LRU eviction.
func (r *Registry) Unpin(name string) error {
	return r.setPinned(name, false)
}

func (r *Registry) setPinned(name string, pinned bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	e.pinned = pinned
	return nil
}

// Get returns the built artifact for name, resolving it first if it is not
// resident: a miss loads from the backing store when possible (a reload)
// and builds otherwise, then writes fresh builds through to the store (a
// spill). Registry-level and per-model counters record every outcome.
// Unknown names return an error satisfying errors.Is(err, ErrUnknownModel).
//
// The resolve runs outside the registry lock, so a cold model never blocks
// hits on other models; concurrent Gets for the same cold model share one
// resolve.
func (r *Registry) Get(name string) (*delphi.SharedModel, error) {
	r.mu.Lock()
	for {
		e, ok := r.entries[name]
		if !ok {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
		}
		if e.art != nil {
			e.hit.Inc()
			r.lru.MoveToFront(e.elem)
			art := e.art
			r.mu.Unlock()
			return art, nil
		}
		if e.building {
			// Another request is already resolving this artifact; wait for
			// it and re-resolve (the finished artifact may itself have been
			// evicted by a concurrent request before we re-acquire the
			// lock, in which case the loop resolves again).
			ready := e.ready
			r.mu.Unlock()
			<-ready
			r.mu.Lock()
			continue
		}

		e.building = true
		e.ready = make(chan struct{})
		e.miss.Inc()
		r.mu.Unlock()

		res := r.resolve(e)

		r.mu.Lock()
		e.building = false
		close(e.ready)
		if res.loadFailed {
			e.loadError.Inc()
		}
		if res.err != nil {
			r.mu.Unlock()
			return nil, res.err
		}
		if res.reloaded {
			e.reload.Inc()
		}
		e.spilled = res.reloaded
		r.admit(e, res.art)
		r.mu.Unlock()
		return res.art, nil
	}
}

// resolveResult is the outcome of one miss-path resolve.
type resolveResult struct {
	art *delphi.SharedModel
	err error
	// reloaded: the artifact came from the store. loadFailed: the store had
	// a file but it was unusable (corrupt, stale, wrong version).
	reloaded, loadFailed bool
}

// resolve materializes one entry's artifact outside the registry lock:
// store load first (when backed), build otherwise. A fresh build's
// write-through does NOT happen here — the caller queues it on the
// background spill writer, so the first request for a model returns as
// soon as the encode finishes instead of also waiting on the disk. Store
// load failures degrade to the memory-only behavior rather than failing
// the Get.
func (r *Registry) resolve(e *regEntry) resolveResult {
	if r.resolveHook != nil {
		r.resolveHook(e.name)
	}
	var res resolveResult
	if r.store != nil {
		art, err := r.store.Load(e.name, e.model)
		if err == nil {
			res.art = art
			res.reloaded = true
			return res
		}
		if !errors.Is(err, ErrArtifactNotFound) {
			res.loadFailed = true
		}
	}
	art, err := buildArtifact(e.model)
	if err != nil {
		res.err = err
		return res
	}
	res.art = art
	return res
}

// admit makes art e's resident artifact: it joins the LRU and the byte
// budget (evicting others past it, never e itself), and unless the store
// already holds it (a reload) its write-through is queued on the
// background writer — the request that built it gets its artifact as soon
// as the build finishes, and the disk copy (which makes a later eviction a
// free drop and the next restart a load) follows asynchronously. Called
// with r.mu held.
func (r *Registry) admit(e *regEntry, art *delphi.SharedModel) {
	e.art, e.size = art, int64(art.SizeBytes())
	e.elem = r.lru.PushFront(e)
	r.bytes += e.size
	r.evictOver(e)
	r.spill(e, art)
}

// spill queues a write of e's artifact on the background spill writer
// unless the store already holds a current copy (spilled) or a write of it
// is already queued (spilling — a concurrent eviction must not queue, and
// count, a duplicate). The job carries the artifact pointer because the
// entry may drop it before the write runs; the outcome folds into the
// spill counters under r.mu. Called with r.mu held.
func (r *Registry) spill(e *regEntry, art *delphi.SharedModel) {
	if r.store == nil || e.spilled || e.spilling {
		return
	}
	e.spilling = true
	r.disk.enqueue(writeJob{
		run: func() error { return r.store.Save(e.name, art) },
		done: func(err error) {
			e.spilling = false
			if err != nil {
				e.spillError.Inc()
			} else {
				e.spilled = true
				e.spill.Inc()
			}
		},
	})
}

// Flush blocks until every queued background disk write has completed —
// the barrier restart-sensitive callers (and tests) use before trusting
// the store's contents or the spill counters.
func (r *Registry) Flush() { r.disk.flush() }

// Close flushes the background disk writes and retires the registry's
// metrics: its final counts fold into the process view, which stops
// holding the registry. The registry's owner calls it after closing every
// engine that serves from it; events counted afterwards reach no view.
func (r *Registry) Close() {
	r.Flush()
	r.retire()
}

// buildArtifact encodes one model into its shared artifact under the
// protocol's default HE parameters.
func buildArtifact(model *nn.Lowered) (*delphi.SharedModel, error) {
	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		return nil, err
	}
	return delphi.NewSharedModel(params, model)
}

// evictOver drops least-recently-used resident artifacts until the byte
// budget holds, never evicting hold (the artifact the caller is about to
// hand out) or entries pinned with Registry.Pin. With a store, an eviction
// whose disk copy is not current queues a spill first — eviction itself
// only ever drops memory. Called with r.mu held.
func (r *Registry) evictOver(hold *regEntry) {
	if r.budget <= 0 {
		return
	}
	for r.bytes > r.budget {
		el := r.lru.Back()
		for el != nil && (el.Value.(*regEntry) == hold || el.Value.(*regEntry).pinned) {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		e := el.Value.(*regEntry)
		r.spill(e, e.art)
		r.lru.Remove(el)
		e.elem = nil
		e.art = nil
		r.bytes -= e.size
		e.size = 0
		e.eviction.Inc()
	}
}

// Has reports whether name is registered (resident or not).
func (r *Registry) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[name]
	return ok
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// RegistryStats is a registry metrics snapshot. Models carries the
// registry-known per-model fields; an engine's Stats merges live session
// counts and buffer fill into the same records.
type RegistryStats struct {
	// Budget is the configured byte budget (<= 0 unbounded); BytesResident
	// is the current resident artifact footprint.
	Budget        int64
	BytesResident int64
	// Hits, Misses and Evictions are lifetime registry totals. A miss is a
	// request that had to resolve the artifact (first use, or reuse after
	// eviction); an eviction dropped a resident artifact under byte-budget
	// pressure.
	Hits, Misses, Evictions uint64
	// Spills and Reloads count the disk layer's traffic: a spill wrote an
	// artifact to the store (write-through after a build, or at eviction
	// for an artifact the store did not hold), a reload served a miss from
	// disk instead of a build. Zero on memory-only registries.
	Spills, Reloads uint64
	// LoadErrors counts store files that existed but could not be used
	// (truncated, checksum mismatch, wrong format version, stale metadata);
	// each one fell back to a fresh build. SpillErrors counts failed disk
	// writes; each left the artifact memory-resident as usual.
	LoadErrors, SpillErrors uint64
	Models                  []ModelStats // sorted by name
}

// Stats snapshots the registry.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RegistryStats{Budget: r.budget, BytesResident: r.bytes}
	for _, e := range r.entries {
		ms := ModelStats{
			Name:        e.name,
			Resident:    e.art != nil,
			OnDisk:      e.spilled,
			Pinned:      e.pinned,
			SizeBytes:   e.size,
			Hits:        e.hit.Value(),
			Misses:      e.miss.Value(),
			Evictions:   e.eviction.Value(),
			Spills:      e.spill.Value(),
			Reloads:     e.reload.Value(),
			LoadErrors:  e.loadError.Value(),
			SpillErrors: e.spillError.Value(),
		}
		// Entries are never unregistered, so the registry totals are the
		// sums of the per-model rows.
		st.Hits += ms.Hits
		st.Misses += ms.Misses
		st.Evictions += ms.Evictions
		st.Spills += ms.Spills
		st.Reloads += ms.Reloads
		st.LoadErrors += ms.LoadErrors
		st.SpillErrors += ms.SpillErrors
		st.Models = append(st.Models, ms)
	}
	sort.Slice(st.Models, func(i, j int) bool { return st.Models[i].Name < st.Models[j].Name })
	return st
}
