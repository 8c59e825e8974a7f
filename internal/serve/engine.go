// Package serve is the multi-client serving engine: it turns the one-pair
// DELPHI protocol stack into a server that accepts N concurrent client
// sessions over a transport listener (TCP or in-process pipe), keeps each
// session's pre-compute buffer filled by a background scheduler operating
// under a global client-storage budget and a bounded offline worker pool,
// and reports per-session and aggregate metrics. Each session end is one
// loop over one queue: the server's control mailbox carries the client's
// requests and the scheduler's refill grants alike, and the client keeps
// one FIFO of its pending calls.
//
// This is the deployment shape the paper's arrival-rate analysis (§3–§5)
// models: pre-computes are produced ahead of Poisson-arriving requests,
// client storage bounds how many may buffer, and request-level parallelism
// across sessions comes from aggregate client storage scaling with the
// session count (§5.2). The scheduler's refill policy is shared with the
// discrete-event simulator (sim.NeediestClient), so measured engine
// behavior and simulated predictions can be compared directly.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/transport"
)

// Config parameterizes an Engine.
type Config struct {
	// Registry holds the named models this engine serves; clients pick one
	// by name in the handshake. Built artifacts live under the registry's
	// byte budget with LRU eviction. A registry may be shared by several
	// engines; its owner closes it (Registry.Close) after closing every
	// engine that uses it.
	Registry *Registry
	// DefaultModel is the name served when a client's hello does not name
	// a model. Empty defaults to the registry's single entry when it has
	// exactly one; with several models and no default, unnamed hellos are
	// rejected.
	DefaultModel string

	// Variant selects which party garbles (delphi.ServerGarbler or
	// delphi.ClientGarbler).
	Variant delphi.Variant
	// LPHEWorkers bounds concurrent offline HE layer jobs per session
	// (delphi's layer-parallel HE, §5.2). 0 runs layers sequentially.
	LPHEWorkers int
	// BufferPerSession is each session's pre-compute buffer target. 0
	// disables background refills: the storage-starved configuration where
	// every inference runs its offline phase inline.
	BufferPerSession int
	// StorageBudget caps total buffered pre-computes across all sessions —
	// the global client-storage budget, in pre-compute slots (divide a byte
	// budget by the per-pre-compute storage from the cost model to get
	// slots). < 0 means unbounded; 0 disables background refills.
	StorageBudget int
	// OfflineWorkers bounds concurrent scheduled offline phases across
	// sessions (the server's pre-processing parallelism). Minimum 1.
	OfflineWorkers int
	// SetupWorkers bounds concurrent full session setups (base OTs + HE
	// keygen) — the admission control that keeps a connect storm from
	// monopolizing the engine's cores and wrecking online latency, and the
	// per-replica capacity knob a fleet front tier scales against. Excess
	// cold connects queue; ticket resumptions bypass the bound (they cost
	// ~no compute, so a full fleet still reconnects fast). 0 means
	// unbounded.
	SetupWorkers int
	// TicketTTL bounds how long an OT resumption ticket stays redeemable
	// (redeeming slides the window). 0 uses DefaultTicketTTL; < 0 disables
	// resumption entirely — every connect runs full base OTs.
	TicketTTL time.Duration
	// TicketBudget caps the resumption cache's resident seed-material
	// bytes, evicting least-recently-resumed tickets past it. 0 uses
	// DefaultTicketBudget; < 0 means unbounded.
	TicketBudget int64
	// TicketDir, when non-empty, backs the resumption-ticket cache with a
	// disk store rooted there: live tickets are written through on a
	// background writer and reloaded at construction, so repeat clients
	// stay on the resumed fast path across an engine restart. Records
	// whose TTL lapsed while the engine was down are swept; damaged
	// records are deleted and counted (TicketStats.LoadErrors) and the
	// affected clients fall back to a fresh handshake. Requires resumption
	// enabled (TicketTTL >= 0). Ticket files hold secret OT seed material
	// — the directory is created 0700 and files 0600.
	TicketDir string
	// Entropy seeds all cryptographic randomness; nil means crypto/rand.
	// It is locked internally so concurrent sessions may share it.
	Entropy io.Reader
}

// Engine is a multi-session PI server. Create with New, feed it listeners
// with Serve, inspect with Stats, stop with Close.
type Engine struct {
	cfg     Config
	entropy io.Reader
	sched   *scheduler
	// reg resolves handshake model names to shared artifacts: weights are
	// encoded once per model (and rebuilt after eviction), never once per
	// connected client.
	reg *Registry
	// defaultModel serves hellos that do not name a model; empty rejects
	// them.
	defaultModel string
	// tickets is the OT resumption cache; nil when resumption is disabled
	// (Config.TicketTTL < 0).
	tickets *ticketCache
	// setupSem bounds concurrent full session setups (Config.SetupWorkers);
	// nil means unbounded.
	setupSem chan struct{}
	// draining marks an engine that rejects new handshakes while existing
	// sessions run to completion (Drain).
	draining atomic.Bool
	// met holds every instrument the engine counts on, on an obs registry
	// of its own: Stats reads them, /metrics sums them with the other
	// components', and Close folds them into the process view.
	met *engineMetrics

	mu sync.Mutex
	// conns maps every accepted connection to its session, nil while the
	// connection is handshaking.
	conns     map[*transport.Conn]*session
	listeners []transport.Listener
	nextID    uint64
	closed    bool

	done chan struct{}
	wg   sync.WaitGroup
}

// New validates the configuration and builds an engine around the
// caller's model registry. Artifacts — encoded weight plaintexts, matvec
// plans, ReLU circuits — are built once per model (a RegisterArtifact
// entry is reused as-is; lazy entries are built on first request) and
// every session of that model serves from the same immutable copy.
func New(cfg Config) (*Engine, error) {
	reg := cfg.Registry
	if reg == nil || reg.Len() == 0 {
		return nil, fmt.Errorf("serve: empty model registry")
	}
	defaultModel := cfg.DefaultModel
	if defaultModel == "" {
		if names := reg.Names(); len(names) == 1 {
			defaultModel = names[0]
		}
	} else if !reg.Has(defaultModel) {
		return nil, fmt.Errorf("serve: default model %q is not registered", defaultModel)
	}
	if cfg.TicketTTL < 0 && cfg.TicketDir != "" {
		return nil, fmt.Errorf("serve: cfg.TicketDir requires resumption enabled (TicketTTL >= 0)")
	}
	var store *ticketStore
	if cfg.TicketDir != "" {
		var err error
		if store, err = newTicketStore(cfg.TicketDir); err != nil {
			return nil, err
		}
	}
	// Nothing below fails, so the instruments mounted here are always
	// retired by Close.
	met := newEngineMetrics()
	e := &Engine{
		cfg:          cfg,
		reg:          reg,
		defaultModel: defaultModel,
		entropy:      delphi.LockedEntropy(cfg.Entropy),
		sched:        newScheduler(cfg.BufferPerSession, cfg.StorageBudget, cfg.OfflineWorkers, met.buffered),
		met:          met,
		conns:        map[*transport.Conn]*session{},
		done:         make(chan struct{}),
	}
	if cfg.TicketTTL >= 0 {
		e.tickets = newTicketCache(cfg.TicketTTL, cfg.TicketBudget, e.entropy, met.tickets)
		if store != nil {
			e.tickets.attachStore(store)
		}
	}
	if cfg.SetupWorkers > 0 {
		e.setupSem = make(chan struct{}, cfg.SetupWorkers)
	}
	return e, nil
}

// Registry returns the engine's model registry (for registering further
// models on a live engine, or direct inspection).
func (e *Engine) Registry() *Registry { return e.reg }

// Serve accepts sessions from ln until the listener fails or the engine is
// closed. It blocks; run it on its own goroutine to serve several listeners
// (e.g. a TCP socket and an in-process pipe) concurrently.
func (e *Engine) Serve(ln transport.Listener) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("serve: engine closed")
	}
	e.listeners = append(e.listeners, ln)
	e.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return nil
			default:
				return err
			}
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.handle(conn, ln.Addr())
		}()
	}
}

// handle runs one session from handshake to teardown.
func (e *Engine) handle(conn *transport.Conn, addr string) {
	defer conn.Close()

	// Track the connection from the start so Close can cut a session loose
	// even mid-handshake.
	if !e.track(conn, nil) {
		return
	}
	defer func() {
		e.mu.Lock()
		if e.conns[conn] != nil {
			e.met.sessions.Add(-1)
		}
		delete(e.conns, conn)
		e.mu.Unlock()
	}()

	s := e.handshake(conn, addr)
	if s == nil {
		return
	}
	if !e.track(conn, s) {
		s.m.close(errEngineClosed)
		return
	}
	e.met.handshakes.With(outcomeOK).Inc()
	e.sched.register(s)
	defer e.sched.unregister(s)

	s.run()
}

// track maps conn to s (nil while handshaking), numbering a new session.
// It reports false once the engine is closed.
func (e *Engine) track(conn *transport.Conn, s *session) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	if s != nil {
		e.nextID++
		s.id = e.nextID
		e.met.sessions.Add(1)
	}
	e.conns[conn] = s
	return true
}

var errEngineClosed = errors.New("serve: engine closed")

// Draining reports whether the engine is refusing new sessions (Drain).
func (e *Engine) Draining() bool { return e.draining.Load() }

// Drain switches the engine to drain mode — new handshakes are rejected
// with a typed code matching errors.Is(err, ErrDraining) — and waits until
// every connected session has finished and disconnected, or ctx ends. It
// does not tear anything down: in-flight inferences complete normally, and
// the caller decides what follows (typically Close). This is the
// scale-down half of a fleet front tier: stop routing to a replica, Drain,
// then stop it.
func (e *Engine) Drain(ctx context.Context) error {
	e.draining.Store(true)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		e.mu.Lock()
		idle := len(e.conns) == 0
		e.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-e.done:
			return nil
		case <-tick.C:
		}
	}
}

// SetStorageBudget replaces the scheduler's global storage budget (in
// pre-compute slots; < 0 unbounded, 0 disables background refills) on a
// live engine — the per-replica knob a fleet autoscaler re-assigns as the
// replica set grows and shrinks. A raised budget triggers refills
// immediately; a lowered one drains by attrition (buffered pre-computes
// are consumed, not discarded).
func (e *Engine) SetStorageBudget(budget int) {
	e.sched.setBudget(budget)
}

// Close stops listeners and tears down every session, then waits for the
// session goroutines to exit.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	lns := append([]transport.Listener(nil), e.listeners...)
	conns := maps.Clone(e.conns)
	e.mu.Unlock()

	for _, ln := range lns {
		ln.Close()
	}
	// Closing a session's mux ends its loop; closing a handshaking
	// connection fails the handshake.
	for c, s := range conns {
		if s != nil {
			s.m.close(errEngineClosed)
		} else {
			c.Close()
		}
	}
	e.wg.Wait()
	// Clean shutdown drains the registry's background disk writes, so a
	// restart over the same artifact directory finds every write-through
	// the engine promised (the registry may be shared; waiting is safe).
	e.reg.Flush()
	// Same barrier for the ticket cache's background persistence: a
	// restart over the same ticket directory must find every live ticket.
	if e.tickets != nil {
		e.tickets.flush()
	}
	// Every event has been counted: fold the final counts into the process
	// view, so /metrics keeps the engine's history and the autoscaler can
	// cycle replicas without the view holding on to their registries.
	e.met.retire()
	return nil
}
