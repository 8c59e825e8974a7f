package garble

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"privinf/internal/boolcirc"
	"privinf/internal/field"
)

func garbledEqual(a, b *Garbled) bool {
	if len(a.Tables) != len(b.Tables) || !bytes.Equal(a.DecodeBits, b.DecodeBits) {
		return false
	}
	for i := range a.Tables {
		if a.Tables[i] != b.Tables[i] {
			return false
		}
	}
	if len(a.Encoding.Inputs) != len(b.Encoding.Inputs) || a.Encoding.R != b.Encoding.R {
		return false
	}
	for i := range a.Encoding.Inputs {
		if a.Encoding.Inputs[i] != b.Encoding.Inputs[i] {
			return false
		}
	}
	return true
}

// TestGarbleIntoMatchesGarble pins the scratch-reusing path against Garble
// bit-for-bit, including when one Garbler and one destination are reused
// across circuits of different shapes (the scheduler-refill usage).
func TestGarbleIntoMatchesGarble(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	circs := []*boolcirc.Circuit{
		boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P17, Frac: 2}),
	}
	for i := 0; i < 6; i++ {
		circs = append(circs, randomCircuit(rng, 1+rng.Intn(8), 1+rng.Intn(50)))
	}
	g := new(Garbler)
	dst := &Garbled{}
	for i, c := range circs {
		seed := int64(1000 + i)
		base := uint64(i) << 22
		want := Garble(c, newSeeded(seed), base)
		g.GarbleInto(dst, c, newSeeded(seed), base)
		if !garbledEqual(want, dst) {
			t.Fatalf("circuit %d: GarbleInto output differs from Garble", i)
		}
	}
}

// TestGarbleBatchMatchesSequential is the core batch equivalence property:
// GarbleBatch on one entropy stream must be bit-identical to sequential
// Garble calls consuming the same stream, for assorted circuit shapes,
// batch sizes (straddling the chunk size), and tweak bases — with one worker
// and with a pool, whose workers claim chunks out of order.
func TestGarbleBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	circs := []*boolcirc.Circuit{
		boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P17, Frac: 2}),
		randomCircuit(rng, 5, 40),
		randomCircuit(rng, 2, 7),
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for ci, c := range circs {
				for _, n := range []int{0, 1, 2, 9, 17, 2*chunk + 3} {
					bases := unitBases(ci, n)
					seed := int64(ci*100 + n)

					seq := make([]*Garbled, n)
					stream := newSeeded(seed)
					for i := range seq {
						seq[i] = Garble(c, stream, bases[i])
					}

					got := GarbleBatch(c, newSeeded(seed), bases)
					if len(got) != n {
						t.Fatalf("circuit %d n=%d: got %d instances", ci, n, len(got))
					}
					for i := range seq {
						if !garbledEqual(seq[i], got[i]) {
							t.Fatalf("circuit %d n=%d: instance %d differs from sequential garbling", ci, n, i)
						}
					}
				}
			}
		})
	}
}

// TestGarbleBatchInstancesEvaluate: batch outputs are real garblings — each
// instance evaluates to the plain-circuit result under its own base.
func TestGarbleBatchInstancesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := randomCircuit(rng, 6, 30)
	bases := []uint64{0, 1 << 22, 3 << 22, 1 << 44}
	out := GarbleBatch(c, newSeeded(31), bases)
	for gi, g := range out {
		inputs := make([]bool, c.NumInputs)
		labels := make([]Label, c.NumInputs)
		inputs[boolcirc.ConstOne] = true
		labels[boolcirc.ConstOne] = g.Encoding.EncodeInput(boolcirc.ConstOne, true)
		for i := 1; i < c.NumInputs; i++ {
			inputs[i] = rng.Intn(2) == 1
			labels[i] = g.Encoding.EncodeInput(i, inputs[i])
		}
		want := c.Eval(inputs)
		got, err := Eval(c, g.Tables, g.DecodeBits, labels, bases[gi])
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

// TestGarbleBatchOutputsIndependent: batch instances own their storage —
// mutating one instance's tables or encoding must not affect another's.
func TestGarbleBatchOutputsIndependent(t *testing.T) {
	c := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P17, Frac: 1})
	bases := []uint64{0, 1 << 22, 2 << 22}
	a := GarbleBatch(c, newSeeded(41), bases)
	b := GarbleBatch(c, newSeeded(41), bases)
	for i := range a[0].Tables {
		a[0].Tables[i] = Label{}
	}
	for i := range a[0].Encoding.Inputs {
		a[0].Encoding.Inputs[i] = Label{}
	}
	for inst := 1; inst < len(a); inst++ {
		if !garbledEqual(a[inst], b[inst]) {
			t.Fatalf("instance %d changed when instance 0 was scribbled on", inst)
		}
	}
}

func TestNewPRGDeterministicStream(t *testing.T) {
	var seed [LabelSize]byte
	copy(seed[:], "prg seam test 01")
	a := make([]byte, 80)
	bbuf := make([]byte, 80)
	if _, err := io.ReadFull(NewPRG(seed), a); err != nil {
		t.Fatal(err)
	}
	// Dirty destination + chunked reads must yield the same stream.
	for i := range bbuf {
		bbuf[i] = 0xAA
	}
	r := NewPRG(seed)
	if _, err := io.ReadFull(r, bbuf[:33]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(r, bbuf[33:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, bbuf) {
		t.Fatal("PRG stream not deterministic across read chunkings")
	}
	var seed2 [LabelSize]byte
	copy(seed2[:], "prg seam test 02")
	c := make([]byte, 80)
	if _, err := io.ReadFull(NewPRG(seed2), c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGarbleBatchWithPRGReplays: the serving engine's usage — a batch keyed
// by a PRG seed replays bit-identically, so precompute is reproducible from
// the seed alone.
func TestGarbleBatchWithPRGReplays(t *testing.T) {
	c := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P17, Frac: 1})
	var seed [LabelSize]byte
	copy(seed[:], "batch replay 001")
	bases := []uint64{0, 1 << 22, 2 << 22, 3 << 22, 4 << 22}
	a := GarbleBatch(c, NewPRG(seed), bases)
	b := GarbleBatch(c, NewPRG(seed), bases)
	for i := range a {
		if !garbledEqual(a[i], b[i]) {
			t.Fatalf("instance %d not replayed identically from the same seed", i)
		}
	}
}

// TestEvaluatorReuse: one Evaluator run over a big circuit, then a small one,
// then the big one again — its slab full of garbage each time — decodes
// exactly what a fresh Evaluator does, and a warm
// call allocates nothing but the bits it returns.
func TestEvaluatorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	big := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P20, Frac: 6})
	small := randomCircuit(rng, 6, 40)
	var ev Evaluator
	for trial, c := range []*boolcirc.Circuit{big, small, big, small, big} {
		bases := []uint64{uint64(trial) << 32}
		g := Garble(c, newSeeded(int64(61+trial)), bases[0])
		l := flatLayer([]*Garbled{g})
		inputs := make([]Label, c.NumInputs)
		for i := range inputs {
			inputs[i] = g.Encoding.EncodeInput(i, i == boolcirc.ConstOne || rng.Intn(2) == 1)
		}
		for i := range ev.wires {
			ev.wires[i] = 0xFF
		}
		got, err := ev.EvalBatch(c, l, inputs, bases)
		if err != nil {
			t.Fatal(err)
		}
		want, err := new(Evaluator).EvalBatch(c, l, inputs, bases)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reused evaluator decoded %v, a fresh one %v", trial, got, want)
		}
		if n := testing.AllocsPerRun(5, func() { ev.EvalBatch(c, l, inputs, bases) }); trial > 0 && n > 1 {
			t.Fatalf("trial %d: warm EvalBatch allocates %v times, want at most 1", trial, n)
		}
	}
}
