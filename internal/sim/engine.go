// Package sim is the discrete-event simulator behind the paper's
// arrival-rate experiments (§3, §4.2, §5) and §5.2's shared server: one or
// more clients, each with its own Poisson stream of inference requests and
// its own client-storage-limited buffer of pre-computes, share one server
// that runs one online phase at a time, oldest ready request first, and
// refills the buffers in the background (layer-parallel or request-level
// parallel, neediest client first). It plays the role SimPy plays in the
// paper's artifact, deterministic under a seed.
package sim

import "container/heap"

// Engine is a minimal deterministic discrete-event engine.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap
}

type event struct {
	at  float64
	seq int64 // tie-breaker preserving schedule order
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay seconds of simulated time.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	heap.Push(&e.events, event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		ev.fn()
	}
}
