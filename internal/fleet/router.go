// Package fleet is the front tier for a replicated serving deployment: a
// Router that owns a set of serve.Engine replicas and places each inbound
// session on one of them, and an Autoscaler that grows and shrinks the
// replica set against a queueing model of the measured load.
//
// The router terminates nothing. It peeks a connection's opening handshake
// frames (serve.PeekClientHello), picks a replica, replays the opening
// verbatim, forwards the replica's answer, and then splices frames blindly
// in both directions — the DELPHI protocol, the phase directives and the
// resumption preamble all pass through untouched, so a session through the
// router is bit-identical to a direct one.
//
// Placement is three-tier:
//
//  1. Ticket-sticky. An OT resumption ticket only resumes on the replica
//     whose cache issued it, so a hello presenting a ticket routes to the
//     replica the router saw issue it. When that replica is gone (scaled
//     down, died) the hello falls through to the normal path and the
//     session cleanly runs full base OTs on another replica.
//  2. Consistent hashing by model (rendezvous hashing), so a model's
//     sessions concentrate on few replicas and the fleet-wide artifact
//     footprint stays near one copy per model instead of one per replica.
//  3. Least-load spill-over: when the hashed replica is carrying more than
//     SpillFactor times its fair share of live sessions, the session goes
//     to the least-loaded replica instead.
//
// A replica that dies mid-handshake is retried transparently on the next
// candidate; only when no live replica can take the session does the
// client see a typed no_backend rejection (serve.ErrNoBackend).
package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"privinf/internal/obs"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

// Config parameterizes a Router.
type Config struct {
	// SpillFactor is the least-load spill-over threshold: a session spills
	// off its hashed replica when that replica's live-session count exceeds
	// SpillFactor × (fleet mean + 1). Higher values favor artifact
	// locality; 0 uses DefaultSpillFactor.
	SpillFactor float64
}

const (
	// DefaultSpillFactor is the SpillFactor a zero Config uses.
	DefaultSpillFactor = 2.0
	// DefaultMaxTickets bounds the ticket→replica sticky map. Overflow drops
	// arbitrary entries — a dropped mapping only costs the hashed route,
	// where the ticket misses and the session falls back to full base OTs.
	DefaultMaxTickets = 4096
)

// Replica is one backend serving engine under the router: an in-process
// engine behind a pipe listener (AddEngine) or a remote engine behind a
// TCP address (AddAddr).
type Replica struct {
	// ID is the router-assigned replica identity (stable across the
	// replica's life, never reused).
	ID int

	eng  *serve.Engine
	ln   *transport.PipeListener
	addr string
	dial func() (*transport.Conn, error)

	// load counts live proxied sessions (handshaking included): the
	// replica's child of the router's pi_replica_load gauge.
	load *obs.Gauge
	live atomic.Bool
}

// Engine returns the replica's in-process engine, nil for TCP backends.
func (r *Replica) Engine() *serve.Engine { return r.eng }

// Addr returns the replica's address ("pipe" for in-process backends).
func (r *Replica) Addr() string { return r.addr }

// Load returns the replica's live proxied-session count.
func (r *Replica) Load() int { return int(r.load.Value()) }

// Router is the fleet front tier. Zero replicas is legal (every connect is
// rejected no_backend) — the autoscaler's MinReplicas keeps real fleets
// above it.
type Router struct {
	cfg Config

	mu       sync.Mutex
	replicas []*Replica
	nextID   int
	tickets  map[string]*Replica
	fronts   []*transport.PipeListener
	conns    map[*transport.Conn]struct{}
	closed   bool

	// wg joins every goroutine the router spawns (replica serve loops,
	// ServePipe accept loops, per-connection handlers); Close waits on it so
	// shutdown leaves nothing running.
	wg sync.WaitGroup

	// met holds every instrument the router counts on; Stats reads them.
	met *routerMetrics
}

// NewRouter returns a router with no replicas.
func NewRouter(cfg Config) *Router {
	if cfg.SpillFactor <= 0 {
		cfg.SpillFactor = DefaultSpillFactor
	}
	return &Router{cfg: cfg, tickets: map[string]*Replica{}, conns: map[*transport.Conn]struct{}{}, met: newRouterMetrics()}
}

// AddEngine registers an in-process engine as a replica: the router
// creates a private pipe listener, serves the engine on it, and starts
// routing sessions to it immediately.
func (r *Router) AddEngine(eng *serve.Engine) (*Replica, error) {
	if eng == nil {
		return nil, fmt.Errorf("fleet: nil engine")
	}
	ln := transport.NewPipeListener()
	rep := &Replica{eng: eng, ln: ln, addr: ln.Addr(), dial: ln.Dial}
	if err := r.add(rep); err != nil {
		ln.Close()
		return nil, err
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		eng.Serve(ln)
	}()
	return rep, nil
}

// AddAddr registers a remote engine by its TCP address. The router dials
// it per session; it cannot drain or re-budget a remote replica (the
// autoscaler manages in-process replicas only).
func (r *Router) AddAddr(addr string) (*Replica, error) {
	rep := &Replica{addr: addr, dial: func() (*transport.Conn, error) { return transport.Dial(addr) }}
	return rep, r.add(rep)
}

func (r *Router) add(rep *Replica) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("fleet: router closed")
	}
	rep.ID = r.nextID
	r.nextID++
	rep.load = r.met.repLoad.With(strconv.Itoa(rep.ID))
	rep.live.Store(true)
	r.replicas = append(r.replicas, rep)
	r.met.replicas.Add(1)
	return nil
}

// Replicas returns a snapshot of the live replica set.
func (r *Router) Replicas() []*Replica {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Replica(nil), r.replicas...)
}

// Remove takes a replica out of the routing set, drains its in-flight
// sessions (in-process replicas; bounded by ctx), and stops it. Sessions
// sticky to its tickets fall back to full handshakes on other replicas.
func (r *Router) Remove(ctx context.Context, rep *Replica) error {
	r.mu.Lock()
	rep.live.Store(false)
	for i, t := range r.replicas {
		if t == rep {
			r.replicas = append(r.replicas[:i], r.replicas[i+1:]...)
			r.met.replicas.Add(-1)
			r.met.repLoad.Delete(strconv.Itoa(rep.ID))
			break
		}
	}
	for k, t := range r.tickets {
		if t == rep {
			delete(r.tickets, k)
		}
	}
	r.mu.Unlock()

	var err error
	if rep.eng != nil {
		err = rep.eng.Drain(ctx)
	}
	if rep.ln != nil {
		rep.ln.Close()
	}
	if rep.eng != nil {
		rep.eng.Close()
	}
	return err
}

// Serve accepts and routes connections until the listener closes. Every
// accepted connection is tracked, so Close can cut live sessions loose and
// wait for their handlers to exit.
func (r *Router) Serve(ln transport.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if !r.track(conn) {
			conn.Close() // router closed between Accept and dispatch
			continue
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.untrack(conn)
			r.handle(conn)
		}()
	}
}

// track registers an inbound connection for shutdown; false means the
// router is closed and the connection should be dropped.
func (r *Router) track(conn *transport.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns[conn] = struct{}{}
	return true
}

func (r *Router) untrack(conn *transport.Conn) {
	r.mu.Lock()
	delete(r.conns, conn)
	r.mu.Unlock()
}

// ServePipe starts an in-process front listener and returns it; clients
// connect with serve.Connect over ln.Dial(). The listener belongs to the
// router: Close closes it and waits for its accept loop.
func (r *Router) ServePipe() *transport.PipeListener {
	ln := transport.NewPipeListener()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		ln.Close()
		return ln
	}
	r.fronts = append(r.fronts, ln)
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.Serve(ln)
	}()
	return ln
}

// Close stops every replica without draining (use Remove for graceful
// scale-down), closes ServePipe front listeners and live proxied
// connections, and waits for every router goroutine to exit. Listeners the
// caller passed to Serve directly still belong to the caller.
func (r *Router) Close() error {
	r.mu.Lock()
	reps := r.replicas
	fronts := r.fronts
	conns := make([]*transport.Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.replicas = nil
	r.fronts = nil
	r.tickets = map[string]*Replica{}
	r.closed = true
	r.met.replicas.Add(-int64(len(reps)))
	r.mu.Unlock()
	for _, ln := range fronts {
		ln.Close()
	}
	for _, rep := range reps {
		rep.live.Store(false)
		if rep.ln != nil {
			rep.ln.Close()
		}
		if rep.eng != nil {
			rep.eng.Close()
		}
	}
	for _, c := range conns {
		c.Close()
	}
	r.wg.Wait()
	r.met.retire() // the router's history folds into the process view
	return nil
}

// handle places one inbound connection: peek the opening, try candidates
// in placement order, splice on success.
func (r *Router) handle(conn *transport.Conn) {
	r.met.connects.Inc()
	hello, err := serve.PeekClientHello(conn, r.met.reg)
	if err != nil {
		conn.Close()
		return
	}
	tried := 0
	for {
		rep := r.place(hello, tried)
		if rep == nil {
			break
		}
		tried++
		if tried > 1 {
			r.met.retries.Inc()
		}
		rep.load.Add(1)
		back, welcome, err := r.open(conn, hello, rep)
		if err != nil {
			rep.load.Add(-1)
			continue // replica died mid-handshake: retry on the next one
		}
		if !welcome {
			// Typed rejection forwarded to the client; nothing to splice.
			rep.load.Add(-1)
			back.Close()
			conn.Close()
			return
		}
		r.splice(conn, back, rep)
		return
	}
	r.met.noBackend.Inc()
	serve.RejectNoBackend(conn, r.met.reg, "fleet: no live replica could take the session")
	conn.Close()
}

// open dials a replica and runs the forwarded handshake up to the
// replica's answer. A transport failure returns an error (the caller
// retries elsewhere); any well-formed answer is forwarded to the client,
// the routing outcome is learned, and welcome reports whether the replica
// accepted the session (a typed rejection is the client's to handle).
func (r *Router) open(cli *transport.Conn, hello *serve.ClientHello, rep *Replica) (back *transport.Conn, welcome bool, err error) {
	back, err = rep.dial()
	if err != nil {
		return nil, false, err
	}
	if err := hello.Replay(back); err != nil {
		back.Close()
		return nil, false, err
	}
	w, err := serve.PeekWelcome(back)
	if err != nil {
		back.Close()
		return nil, false, err
	}
	r.learn(hello, w, rep)
	if err := cli.Send(w.Frame); err != nil {
		back.Close()
		return nil, false, err
	}
	return back, w.Welcome, nil
}

// place picks the skip-th placement candidate for a hello, in order:
// ticket-sticky replica, hashed (or spilled) primary, then the remaining
// replicas by ascending load. Returns nil when candidates are exhausted.
func (r *Router) place(hello *serve.ClientHello, skip int) *Replica {
	r.mu.Lock()
	defer r.mu.Unlock()
	var order []*Replica
	seen := func(rep *Replica) bool {
		for _, o := range order {
			if o == rep {
				return true
			}
		}
		return false
	}
	if len(hello.Ticket) > 0 {
		if rep := r.tickets[string(hello.Ticket)]; rep != nil && rep.live.Load() {
			order = append(order, rep)
			if skip == 0 {
				r.met.sticky.Inc()
				return rep
			}
		}
	}
	if len(r.replicas) == 0 {
		return nil
	}

	rest := append([]*Replica(nil), r.replicas...)
	sort.Slice(rest, func(i, j int) bool {
		li, lj := rest[i].load.Value(), rest[j].load.Value()
		if li != lj {
			return li < lj
		}
		return rest[i].ID < rest[j].ID
	})

	primary := r.hashed(hello.Model)
	spilled := false
	total := int64(0)
	for _, rep := range r.replicas {
		total += rep.load.Value()
	}
	fair := float64(total)/float64(len(r.replicas)) + 1
	if float64(primary.load.Value()) > r.cfg.SpillFactor*fair {
		if spill := rest[0]; spill != primary {
			primary = spill
			spilled = true
		}
	}
	if !seen(primary) {
		order = append(order, primary)
	}
	for _, rep := range rest {
		if !seen(rep) {
			order = append(order, rep)
		}
	}
	if skip >= len(order) {
		return nil
	}
	rep := order[skip]
	switch {
	case rep != primary:
		r.met.placements.With(tierFallback).Inc()
	case spilled:
		r.met.spill.Inc()
	default:
		r.met.placements.With(tierHashed).Inc()
	}
	return rep
}

// hashed is rendezvous (highest-random-weight) hashing of the model name
// over the replica set: each model keeps a stable favorite replica, and
// adding or removing a replica only moves the models that hashed to it.
// Called with r.mu held; requires a non-empty replica set.
func (r *Router) hashed(model string) *Replica {
	var best *Replica
	var bestScore uint64
	for _, rep := range r.replicas {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d", model, rep.ID)
		if s := h.Sum64(); best == nil || s > bestScore || (s == bestScore && rep.ID < best.ID) {
			best, bestScore = rep, s
		}
	}
	return best
}

// learn updates the ticket→replica sticky map from a forwarded welcome: a
// freshly issued ticket maps to the replica that issued it, and a
// presented ticket that did not resume is unlearned.
func (r *Router) learn(hello *serve.ClientHello, w *serve.WelcomeInfo, rep *Replica) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(hello.Ticket) > 0 && !w.Resumed {
		delete(r.tickets, string(hello.Ticket))
	}
	if len(w.Ticket) > 0 {
		if len(r.tickets) >= DefaultMaxTickets {
			for k := range r.tickets {
				delete(r.tickets, k)
				break
			}
		}
		r.tickets[string(w.Ticket)] = rep
	}
}

// splice forwards the already-received welcome frame and then copies
// frames in both directions until either side closes.
func (r *Router) splice(cli, back *transport.Conn, rep *Replica) {
	defer rep.load.Add(-1)
	halt := func() { cli.Close(); back.Close() }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			f, err := back.Recv()
			if err != nil || cli.Send(f) != nil {
				halt()
				return
			}
		}
	}()
	for {
		f, err := cli.Recv()
		if err != nil || back.Send(f) != nil {
			halt()
			break
		}
	}
	<-done
}

// Stats is a router metrics snapshot.
type Stats struct {
	// Connects counts inbound connections; Retries counts placement
	// attempts beyond each connection's first; NoBackend counts
	// connections rejected with no live replica.
	Connects  uint64
	Retries   uint64
	NoBackend uint64
	// TicketRoutes counts ticket-sticky placements, SpillRoutes
	// least-load spill-overs off the hashed replica.
	TicketRoutes uint64
	SpillRoutes  uint64
	// Replicas snapshots the live set: ID, address and live session load.
	Replicas []ReplicaStats
}

// ReplicaStats is one replica's slice of the router snapshot.
type ReplicaStats struct {
	ID   int
	Addr string
	Load int
}

// Stats snapshots the router's counters and live replica set. The
// counters are reads of the router's obs instruments: TicketRoutes,
// SpillRoutes and NoBackend are the sticky, spill and no_backend children
// of pi_router_placements_total.
func (r *Router) Stats() Stats {
	st := Stats{
		Connects:     r.met.connects.Value(),
		Retries:      r.met.retries.Value(),
		NoBackend:    r.met.noBackend.Value(),
		TicketRoutes: r.met.sticky.Value(),
		SpillRoutes:  r.met.spill.Value(),
	}
	r.mu.Lock()
	for _, rep := range r.replicas {
		st.Replicas = append(st.Replicas, ReplicaStats{ID: rep.ID, Addr: rep.addr, Load: rep.Load()})
	}
	r.mu.Unlock()
	return st
}
