package serve

import "sync"

// writeBehind is a lazily started single-worker queue of disk writes — the
// one background writer behind the registry's artifact spills and the
// ticket cache's record persistence. It shares its owner's lock: the owner
// enqueues with the lock held (so no enqueue ever performs I/O under it),
// the worker runs each job's I/O with the lock released and reports the
// outcome with it held again, so the owner's counters and entry flags
// change only under their own lock. Jobs run in queue order. No goroutine
// outlives an empty queue.
type writeBehind struct {
	mu      sync.Locker // the owner's lock; guards every field below
	queue   []writeJob
	active  bool // a worker is draining queue
	pending int  // queued + in-flight jobs; flush waits for zero
	drained *sync.Cond
}

// writeJob is one deferred disk operation: run does the I/O outside the
// lock, done records its outcome under the lock.
type writeJob struct {
	run  func() error
	done func(error)
}

func newWriteBehind(mu sync.Locker) *writeBehind {
	return &writeBehind{mu: mu, drained: sync.NewCond(mu)}
}

// enqueue queues a job and ensures a worker is draining the queue. Caller
// holds the owner's lock.
func (w *writeBehind) enqueue(job writeJob) {
	w.queue = append(w.queue, job)
	w.pending++
	if !w.active {
		w.active = true
		//lint:allow goroutineleak active gates one worker at a time and flush joins it via pending; it exits when the queue drains
		go w.drain()
	}
}

func (w *writeBehind) drain() {
	w.mu.Lock()
	for len(w.queue) > 0 {
		job := w.queue[0]
		w.queue = w.queue[1:]
		w.mu.Unlock()
		err := job.run()
		w.mu.Lock()
		job.done(err)
		w.pending--
		if w.pending == 0 {
			w.drained.Broadcast()
		}
	}
	w.active = false
	w.mu.Unlock()
}

// flush blocks until every queued write has completed — the barrier clean
// shutdown (and tests) use before trusting the disk or the owner's
// counters. Caller must not hold the owner's lock.
func (w *writeBehind) flush() {
	w.mu.Lock()
	for w.pending > 0 {
		w.drained.Wait()
	}
	w.mu.Unlock()
}
