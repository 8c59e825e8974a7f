package serve

import (
	"sync"
	"testing"

	"privinf/internal/boolcirc"
	"privinf/internal/delphi"
	"privinf/internal/field"
	"privinf/internal/garble"
)

func garblerEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := New(Config{Model: testModel(t, 91), Variant: delphi.ServerGarbler})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// checkInstances verifies each garbled instance is a real garbling of c:
// its encoded inputs evaluate to the plain-circuit result under its base.
func checkInstances(t *testing.T, c *boolcirc.Circuit, out []*garble.Garbled, bases []uint64) {
	t.Helper()
	if len(out) != len(bases) {
		t.Fatalf("got %d instances for %d bases", len(out), len(bases))
	}
	for gi, g := range out {
		inputs := make([]bool, c.NumInputs)
		labels := make([]garble.Label, c.NumInputs)
		inputs[boolcirc.ConstOne] = true
		labels[boolcirc.ConstOne] = g.Encoding.EncodeInput(boolcirc.ConstOne, true)
		for i := 1; i < c.NumInputs; i++ {
			inputs[i] = (i+gi)%3 == 0
			labels[i] = g.Encoding.EncodeInput(i, inputs[i])
		}
		want := c.Eval(inputs)
		got, err := garble.Eval(c, g.Tables, g.DecodeBits, labels, bases[gi])
		if err != nil {
			t.Fatalf("instance %d: %v", gi, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("instance %d output %d: garbled %v plain %v", gi, i, got[i], want[i])
			}
		}
	}
}

// TestGarbleSubmitConcurrent drives the coalescer the way concurrent
// session refills do: many goroutines submitting layer requests — two
// distinct circuits interleaved, so the worker's held-request requeue path
// runs too — each getting back exactly its own valid instances.
func TestGarbleSubmitConcurrent(t *testing.T) {
	eng := garblerEngine(t)
	circs := []*boolcirc.Circuit{
		boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P17, Frac: 1}),
		boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P17, Frac: 2}),
	}

	const callers = 8
	var wg sync.WaitGroup
	for ci := 0; ci < callers; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := circs[ci%len(circs)]
			bases := make([]uint64, 1+ci%3)
			for u := range bases {
				bases[u] = uint64(ci)<<44 | uint64(u)<<22
			}
			checkInstances(t, c, eng.garbler.submit(c, nil, bases), bases)
		}(ci)
	}
	wg.Wait()

	st := eng.Stats()
	if st.GarbleRequests != callers {
		t.Fatalf("coalescer served %d requests, want %d", st.GarbleRequests, callers)
	}
	if st.GarbleBatches == 0 || st.GarbleBatches > callers {
		t.Fatalf("coalescer ran %d batches for %d requests", st.GarbleBatches, callers)
	}
	if eng.garbler.submit(circs[0], nil, nil) != nil {
		t.Fatal("empty request should return nil without touching the worker")
	}
}

// TestGarbleServeCoalescedGroup pins the batch-splitting logic
// deterministically: a hand-built same-circuit group garbles as one pass
// and each requester receives exactly its slice, valid under its bases.
func TestGarbleServeCoalescedGroup(t *testing.T) {
	eng := garblerEngine(t)
	bg := eng.garbler
	c := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P17, Frac: 1})

	reqs := []garbleReq{
		{circ: c, bases: []uint64{0, 1 << 22}, reply: make(chan []*garble.Garbled, 1)},
		{circ: c, bases: []uint64{1 << 44}, reply: make(chan []*garble.Garbled, 1)},
		{circ: c, bases: []uint64{2 << 44, 2<<44 | 1<<22, 2<<44 | 2<<22}, reply: make(chan []*garble.Garbled, 1)},
	}
	before := eng.Stats().GarbleBatches
	bg.serve(reqs)
	for _, r := range reqs {
		checkInstances(t, c, <-r.reply, r.bases)
	}
	st := eng.Stats()
	if got := st.GarbleBatches - before; got != 1 {
		t.Fatalf("group garbled in %d passes, want 1", got)
	}
	if st.GarbleCoalesced != 3 {
		t.Fatalf("coalesced counter %d, want 3", st.GarbleCoalesced)
	}
}

// TestGarbleSubmitAfterClose: a session torn down mid-offline-phase must
// not deadlock — after Close the coalescing worker is gone and submit falls
// back to garbling locally on the provided entropy stream, bit-identical to
// a direct GarbleBatch on that stream.
func TestGarbleSubmitAfterClose(t *testing.T) {
	eng := garblerEngine(t)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	c := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P17, Frac: 1})
	bases := []uint64{0, 1 << 22}
	var seed [garble.LabelSize]byte
	copy(seed[:], "engine close test")

	got := eng.garbler.submit(c, garble.NewPRG(seed), bases)
	checkInstances(t, c, got, bases)
	want := garble.GarbleBatch(c, garble.NewPRG(seed), bases)
	for i := range want {
		for j := range want[i].Tables {
			if got[i].Tables[j] != want[i].Tables[j] {
				t.Fatalf("instance %d table %d: fallback differs from direct GarbleBatch", i, j)
			}
		}
	}
	if eng.Stats().GarbleRequests != 0 {
		t.Fatalf("fallback path incremented the worker's counters")
	}
}
