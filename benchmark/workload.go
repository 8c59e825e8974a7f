package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"privinf/internal/nn"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

// sessionPlan is one generated session: everything the seed decides. The
// program under test sees only model, preamble and inputs.
type sessionPlan struct {
	id     int
	due    time.Duration // offset from the window start; 0 in a closed loop
	model  string
	client int // index of the returning client's preamble, -1 for a cold client
	inputs [][]uint64
	want   [][]uint64 // plaintext Forward of each input
}

// generator turns a seed into sessions. Shares (cold clients, MLP) are
// stratified, not sampled: every block of ten sessions holds exactly the
// configured share of each in a seeded order, so two seeds differ in which
// sessions are cold, never in how many.
type generator struct {
	w      workload
	models map[string]*nn.Lowered
	rng    *rand.Rand
	next   int
	cold   []bool
	mlp    []bool
}

const mixBlock = 10

func newGenerator(w workload, models map[string]*nn.Lowered, seed int64) *generator {
	return &generator{w: w, models: models, rng: rand.New(rand.NewSource(seed))}
}

// shuffledShare returns mixBlock flags of which round(share*mixBlock) are
// set, in seeded order.
func (g *generator) shuffledShare(share float64) []bool {
	flags := make([]bool, mixBlock)
	for i := 0; i < int(share*mixBlock+0.5); i++ {
		flags[i] = true
	}
	g.rng.Shuffle(len(flags), func(i, j int) { flags[i], flags[j] = flags[j], flags[i] })
	return flags
}

// align starts a new mix block, so that a window's shares do not depend on
// how many sessions the warm-up took.
func (g *generator) align() {
	g.next = (g.next + mixBlock - 1) / mixBlock * mixBlock
}

func (g *generator) session() sessionPlan {
	if g.next%mixBlock == 0 {
		g.cold = g.shuffledShare(g.w.coldShare)
		g.mlp = g.shuffledShare(g.w.mlpShare)
	}
	slot := g.next % mixBlock
	g.next++
	p := sessionPlan{id: g.next, model: modelCNN, client: -1}
	if g.mlp[slot] {
		p.model = modelMLP
	}
	if !g.cold[slot] {
		p.client = g.rng.Intn(g.w.returning)
	}
	m := g.models[p.model]
	for k := 0; k < g.w.k; k++ {
		x := g.input(m)
		p.inputs = append(p.inputs, x)
		p.want = append(p.want, m.Forward(x))
	}
	return p
}

// input draws one inference input for m: small fixed-point pixels, as the
// repository's examples use.
func (g *generator) input(m *nn.Lowered) []uint64 {
	x := make([]uint64, m.InputLen())
	for i := range x {
		x[i] = uint64(g.rng.Intn(16))
	}
	return x
}

// schedule generates the open loop's sessions for a window: n = rate*window
// arrival times drawn uniformly over the window and sorted — a Poisson
// process conditioned on its count, so every seed offers exactly the same
// load and only the spacing varies.
func (g *generator) schedule(window time.Duration) []sessionPlan {
	n := int(g.w.rate*window.Seconds() + 0.5)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(g.rng.Float64() * float64(window))
	}
	slices.Sort(dues)
	plans := make([]sessionPlan, n)
	for i := range plans {
		plans[i] = g.session()
		plans[i].due = dues[i]
	}
	return plans
}

// phaseCount is attempted / failed operations of one phase.
type phaseCount struct{ attempted, failed int }

func (p *phaseCount) add(ok bool) {
	p.attempted++
	if !ok {
		p.failed++
	}
}

func (p *phaseCount) merge(o phaseCount) {
	p.attempted += o.attempted
	p.failed += o.failed
}

// sessionResult is what one session measured.
type sessionResult struct {
	cold     bool
	resumed  bool
	lag      time.Duration // open loop: how late the session started
	connect  time.Duration // dial → handshake complete
	first    time.Duration // start (due time in an open loop) → first verified output
	precomps []time.Duration
	infers   []time.Duration
	// onlineBytes is the client's delphi report of every online phase.
	onlineBytes uint64
	wireBytes   uint64 // whole connection, both directions, framing included
	// handshakeBytes is wireBytes as of the handshake's completion.
	handshakeBytes uint64
	bufferHits     int // inferences that found a pre-compute buffered
	verified       int
	// worstLater is the slowest inference after the first.
	worstLater time.Duration
	done       bool // ran to Close with every output verified
	err        error
}

// results collects a window's sessions.
type results struct {
	mu       sync.Mutex
	sessions []sessionResult
	connects phaseCount
	precomps phaseCount
	infers   phaseCount
	wall     time.Duration
	cpu      time.Duration
	// Heap allocations and stop-the-world GC pause over the window, whole
	// process (clients and engines).
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	firstError error
	// speed is the machine-speed reference sampled through the window.
	speed speedSamples
	// rss is the resident set sampled every rssEvery through the window.
	rss []float64
}

const rssEvery = 20 * time.Millisecond

// sampleRSS records the resident set every rssEvery until the returned stop
// function is called; stop returns once the sampler has exited.
func (r *results) sampleRSS() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if v := rssMiB(); v > 0 {
					r.rss = append(r.rss, v)
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

func (r *results) add(s sessionResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions = append(r.sessions, s)
	if s.err != nil && r.firstError == nil {
		r.firstError = s.err
	}
}

func (r *results) count(p *phaseCount, ok bool) {
	r.mu.Lock()
	p.add(ok)
	r.mu.Unlock()
}

func (r *results) attempted() int {
	return r.connects.attempted + r.precomps.attempted + r.infers.attempted
}

func (r *results) failed() int {
	return r.connects.failed + r.precomps.failed + r.infers.failed
}

// sessionLatencies returns dial → handshake of every session that connected
// and start → first verified output of every session that got one.
func (r *results) sessionLatencies() (connects, firsts []time.Duration) {
	for _, s := range r.sessions {
		if s.connect > 0 {
			connects = append(connects, s.connect)
		}
		if s.verified > 0 {
			firsts = append(firsts, s.first)
		}
	}
	return connects, firsts
}

func (r *results) inferLatencies() []time.Duration {
	var out []time.Duration
	for _, s := range r.sessions {
		out = append(out, s.infers...)
	}
	return out
}

func (r *results) verified() int {
	n := 0
	for _, s := range r.sessions {
		n += s.verified
	}
	return n
}

// runSession drives one session against e and records it in r. start is
// when the session was due: latency is timed from it, so a session that
// started late because earlier ones stalled the client carries that wait.
func runSession(e *env, p sessionPlan, start time.Time, r *results, tr *tracer) {
	res := sessionResult{cold: p.client < 0, lag: time.Since(start)}
	root := tr.begin(0, p.id, "session")
	defer func() {
		tr.end(root)
		r.add(res)
	}()

	preamble := serve.NewPreamble()
	if p.client >= 0 {
		preamble = e.preambles[p.client]
	}
	dialed := time.Now()
	sp := tr.begin(root, p.id, "transport.Dial")
	conn, err := transport.Dial(e.addr)
	tr.end(sp)
	if err != nil {
		r.count(&r.connects, false)
		res.err = fmt.Errorf("session %d dial: %w", p.id, err)
		return
	}
	sp = tr.begin(root, p.id, "serve.Connect")
	cli, err := serve.Connect(conn, serve.WithModel(p.model), serve.WithPreamble(preamble))
	tr.end(sp)
	r.count(&r.connects, err == nil)
	if err != nil {
		conn.Close()
		res.err = fmt.Errorf("session %d connect: %w", p.id, err)
		return
	}
	res.connect = time.Since(dialed)
	res.handshakeBytes = conn.SentBytes() + conn.RecvBytes()
	res.resumed = cli.Resumed()

	for k, x := range p.inputs {
		if e.w.precompute {
			t0 := time.Now()
			sp = tr.begin(root, p.id, "Client.Precompute")
			_, _, err := cli.Precompute()
			tr.end(sp)
			r.count(&r.precomps, err == nil)
			if err != nil {
				res.err = fmt.Errorf("session %d precompute %d: %w", p.id, k, err)
				break
			}
			res.precomps = append(res.precomps, time.Since(t0))
		}
		if cli.Buffered() > 0 {
			res.bufferHits++
		}
		t0 := time.Now()
		sp = tr.begin(root, p.id, "Client.Infer")
		out, crep, _, err := cli.Infer(x)
		tr.end(sp)
		took := time.Since(t0)
		ok := err == nil && slices.Equal(out, p.want[k])
		r.count(&r.infers, ok)
		if !ok {
			if err == nil {
				err = fmt.Errorf("output differs from plaintext Forward")
			}
			res.err = fmt.Errorf("session %d infer %d: %w", p.id, k, err)
			break
		}
		res.verified++
		res.infers = append(res.infers, took)
		res.onlineBytes += crep.BytesSent + crep.BytesRecv
		if k == 0 {
			res.first = time.Since(start)
		} else {
			res.worstLater = max(res.worstLater, took)
		}
	}
	sp = tr.begin(root, p.id, "Client.Close")
	cli.Close()
	tr.end(sp)
	res.wireBytes = conn.SentBytes() + conn.RecvBytes()
	res.done = res.err == nil
}

// runWindow runs the workload against e for the given window and returns
// what it measured. A closed loop starts sessions back to back until the
// window has passed and lets the last one finish; an open loop starts every
// scheduled session at its due time on one of `workers` client workers.
func runWindow(e *env, g *generator, window time.Duration, workers int, tr *tracer) *results {
	r := &results{}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	stopRSS := r.sampleRSS()
	cpu0 := cpuTime()
	begin := time.Now()
	g.align()
	if !e.w.open {
		for time.Since(begin) < window {
			r.speed.sample()
			runSession(e, g.session(), time.Now(), r, tr)
		}
	} else {
		plans := g.schedule(window)
		// Each worker takes the next session in due order and sleeps until it
		// is due. With every worker busy the next session starts late, and
		// is still timed from its due time.
		var next atomic.Int64
		var wg sync.WaitGroup
		var active atomic.Int32 // sessions in flight
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(plans) {
						return
					}
					due := begin.Add(plans[i].due)
					// Take a speed sample while waiting, if it fits before the
					// due time and no other worker's session disturbs it.
					if time.Until(due) > 2*refNominal && active.Load() == 0 {
						if d := refKernel(); active.Load() == 0 {
							r.speed.add(d)
						}
					}
					time.Sleep(time.Until(due))
					active.Add(1)
					runSession(e, plans[i], due, r, tr)
					active.Add(-1)
				}
			}()
		}
		wg.Wait()
	}
	r.wall = time.Since(begin)
	r.cpu = cpuTime() - cpu0
	stopRSS()
	runtime.ReadMemStats(&mem1)
	r.mallocs = mem1.Mallocs - mem0.Mallocs
	r.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
	r.gcPause = time.Duration(mem1.PauseTotalNs - mem0.PauseTotalNs)
	return r
}
