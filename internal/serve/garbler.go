package serve

// Engine-level garbling coalescer. Sessions of one model share the
// artifact's ReLU circuits (one *boolcirc.Circuit per activation layer), so
// when the scheduler's refill path drives several sessions through their
// offline phases at once, each asks for the same circuit garbled under its
// own instance bases. The coalescer funnels those per-layer requests
// through one worker that merges same-circuit requests into a single
// garble.GarbleBatch pass — one bulk entropy draw, one worker-pool fan-out
// over every unit of every pending session — instead of per-session passes.
//
// The seam is delphi.Config.GarbleFunc: handle() injects submit, so the
// delphi layer's offline garbling transparently routes here. Correctness
// does not depend on coalescing actually happening — each batch draws fresh
// randomness from a PRG seeded by the engine's entropy, and every request
// gets back exactly its own instances — so a request that arrives alone
// simply garbles alone.

import (
	"crypto/rand"
	"io"

	"privinf/internal/boolcirc"
	"privinf/internal/garble"
)

// garbleReq is one session's request to garble len(bases) instances of circ.
type garbleReq struct {
	circ  *boolcirc.Circuit
	bases []uint64
	// reply carries back exactly len(bases) garbled instances. Buffered so
	// the worker's send never blocks on a requester that already gave up
	// (engine shutdown).
	reply chan []*garble.Garbled
}

// batchGarbler is the engine's garbling coalescer: a single worker
// goroutine (registered with the engine's WaitGroup, exiting on its done
// channel) that merges concurrently pending same-circuit requests.
type batchGarbler struct {
	eng   *Engine
	reqCh chan garbleReq
}

func newBatchGarbler(e *Engine) *batchGarbler {
	return &batchGarbler{eng: e, reqCh: make(chan garbleReq)}
}

// submit satisfies delphi.Config.GarbleFunc. It hands the request to the
// coalescing worker and waits for its slice of the batch. During engine
// shutdown it falls back to garbling locally on the session's own entropy
// stream — the worker may already be gone, and a session torn down
// mid-offline-phase must not deadlock Close.
func (b *batchGarbler) submit(c *boolcirc.Circuit, src io.Reader, bases []uint64) []*garble.Garbled {
	if len(bases) == 0 {
		return nil
	}
	req := garbleReq{circ: c, bases: bases, reply: make(chan []*garble.Garbled, 1)}
	select {
	case b.reqCh <- req:
	case <-b.eng.done:
		return garble.GarbleBatch(c, src, bases)
	}
	select {
	case out := <-req.reply:
		return out
	case <-b.eng.done:
		// The worker may still serve the accepted request; its buffered
		// reply send cannot block, and the discarded instances are just
		// unused randomness.
		return garble.GarbleBatch(c, src, bases)
	}
}

// run is the coalescing worker loop: take one request, sweep every other
// request already pending, batch the ones for the same circuit, and hold
// the rest for the next iteration (they seed their own batches).
func (b *batchGarbler) run() {
	defer b.eng.wg.Done()
	var held []garbleReq
	for {
		var first garbleReq
		if len(held) > 0 {
			first, held = held[0], held[1:]
		} else {
			select {
			case first = <-b.reqCh:
			case <-b.eng.done:
				return
			}
		}
		group := []garbleReq{first}
	sweep:
		for {
			select {
			case r := <-b.reqCh:
				if r.circ == first.circ {
					group = append(group, r)
				} else {
					held = append(held, r)
				}
			default:
				break sweep
			}
		}
		b.serve(group)
	}
}

// serve garbles one coalesced group in a single GarbleBatch pass and deals
// each requester its slice. Batch entropy is a PRG seeded from the engine's
// entropy source: one locked read per batch instead of one per instance,
// and the expansion is deterministic given the seed (the property the
// garble-layer equivalence tests pin).
func (b *batchGarbler) serve(group []garbleReq) {
	total := 0
	for _, r := range group {
		total += len(r.bases)
	}
	bases := make([]uint64, 0, total)
	for _, r := range group {
		bases = append(bases, r.bases...)
	}
	src := b.eng.entropy
	if src == nil {
		src = rand.Reader
	}
	var seed [garble.LabelSize]byte
	if _, err := io.ReadFull(src, seed[:]); err != nil {
		panic("serve: engine entropy source failed: " + err.Error())
	}
	out := garble.GarbleBatch(group[0].circ, garble.NewPRG(seed), bases)
	// pi_garble_total: requests served through the coalescer, GarbleBatch
	// passes run, and requests that shared a pass with at least one other.
	b.eng.met.garbleRequests.Add(uint64(len(group)))
	b.eng.met.garbleBatches.Inc()
	if len(group) > 1 {
		b.eng.met.garbleCoalesced.Add(uint64(len(group)))
	}
	off := 0
	for _, r := range group {
		r.reply <- out[off : off+len(r.bases)]
		off += len(r.bases)
	}
}
