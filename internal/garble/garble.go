package garble

import (
	"crypto/rand"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"privinf/internal/boolcirc"
)

// Garbled holds everything the garbler produces for one circuit instance.
// The evaluator receives Tables and DecodeBits (via Garbled.Transferable);
// Encoding stays with the garbler for input encoding and OT.
type Garbled struct {
	// Tables holds two ciphertexts per AND gate, in gate order.
	Tables []Label
	// DecodeBits holds the color bit of each output wire's false label;
	// the evaluator XORs it with the active label's color to decode.
	DecodeBits []byte
	// Encoding holds the garbler-private input encoding.
	Encoding Encoding
}

// Encoding is the garbler's secret input-encoding information: the false
// label of every input wire plus the global FreeXOR offset R.
// Storage cost per ReLU of keeping these is the 3.5 KB/ReLU the paper
// charges the garbler (§4.1.1).
type Encoding struct {
	Inputs []Label // false labels, one per circuit input (incl. const-one)
	R      Label   // global offset; label(true) = label(false) ⊕ R
}

// EncodeInput returns the active label for input wire i carrying bit v.
func (e Encoding) EncodeInput(i int, v bool) Label {
	if v {
		return e.Inputs[i].xor(e.R)
	}
	return e.Inputs[i]
}

// LabelPair returns (false, true) labels for input i, the sender inputs
// for oblivious transfer of the evaluator's choice bits.
func (e Encoding) LabelPair(i int) (Label, Label) {
	return e.Inputs[i], e.Inputs[i].xor(e.R)
}

// Garbler garbles circuits through reusable scratch (wire-label workspace,
// bulk-entropy buffer, and the fixed-key hasher's AES blocks), so repeated
// garbling allocates nothing beyond each instance's retained outputs — and
// nothing at all via GarbleInto when the destination is reused. A Garbler
// is not safe for concurrent use; GarbleBatch gives each worker its own.
type Garbler struct {
	h      Hasher
	false0 []Label
	rbuf   []byte
}

// NewGarbler returns a Garbler with its fixed-key hasher initialized.
func NewGarbler() *Garbler {
	return &Garbler{h: NewHasher()}
}

// Garble garbles the circuit. src supplies label randomness (nil means
// crypto/rand). gateIndexBase offsets the hash tweak so that multiple
// circuit instances garbled under one session never reuse a tweak.
func Garble(c *boolcirc.Circuit, src io.Reader, gateIndexBase uint64) *Garbled {
	dst := &Garbled{}
	NewGarbler().GarbleInto(dst, c, src, gateIndexBase)
	return dst
}

// GarbleInto garbles c into dst, reusing dst's existing storage when its
// capacity suffices (Tables, DecodeBits and Encoding.Inputs are resized,
// never aliased to Garbler scratch). Output is bit-identical to Garble on
// the same entropy stream: the bulk entropy read consumes exactly the bytes
// the sequential per-label reads did, in the same order (R first, then one
// label per input wire).
func (g *Garbler) GarbleInto(dst *Garbled, c *boolcirc.Circuit, src io.Reader, gateIndexBase uint64) {
	if g.h.block == nil {
		g.h = NewHasher()
	}
	need := (1 + c.NumInputs) * LabelSize
	if cap(g.rbuf) < need {
		g.rbuf = make([]byte, need)
	}
	buf := g.rbuf[:need]
	if src == nil {
		src = rand.Reader
	}
	if _, err := io.ReadFull(src, buf); err != nil {
		panic("garble: entropy source failed: " + err.Error())
	}
	g.garbleCore(dst, c, buf, gateIndexBase)
}

// garbleCore runs the half-gates pass over c with instance randomness rnd
// (R's bytes followed by the input labels' bytes), writing into dst.
func (g *Garbler) garbleCore(dst *Garbled, c *boolcirc.Circuit, rnd []byte, gateIndexBase uint64) {
	h := &g.h

	// Global offset with color bit forced to 1 (point-and-permute).
	var r Label
	copy(r[:], rnd[:LabelSize])
	r[0] |= 1

	if cap(g.false0) < c.NumWires {
		g.false0 = make([]Label, c.NumWires)
	}
	false0 := g.false0[:c.NumWires]
	for i := 0; i < c.NumInputs; i++ {
		copy(false0[i][:], rnd[(1+i)*LabelSize:(2+i)*LabelSize])
	}

	nand := c.NumAND()
	if cap(dst.Tables) < 2*nand {
		dst.Tables = make([]Label, 0, 2*nand)
	}
	tables := dst.Tables[:0]
	gateIndex := gateIndexBase

	for _, gt := range c.Gates {
		switch gt.Op {
		case boolcirc.XOR:
			false0[gt.Out] = false0[gt.A].xor(false0[gt.B])
		case boolcirc.AND:
			a0 := false0[gt.A]
			b0 := false0[gt.B]
			pa := a0.color()
			pb := b0.color()
			j0 := gateIndex
			j1 := gateIndex + 1
			gateIndex += 2

			a1 := a0.xor(r)
			b1 := b0.xor(r)

			// Each distinct (label, tweak) pair is hashed exactly once:
			// four AES calls per AND gate, where the pre-dedup code paid
			// six (h(a0,j0) three times, h(b0,j1) twice).
			ha0 := h.Hash(a0, j0)
			ha1 := h.Hash(a1, j0)
			hb0 := h.Hash(b0, j1)
			hb1 := h.Hash(b1, j1)

			// Generator half gate.
			tg := ha0.xor(ha1)
			if pb == 1 {
				tg = tg.xor(r)
			}
			wg := ha0
			if pa == 1 {
				wg = wg.xor(tg)
			}

			// Evaluator half gate.
			te := hb0.xor(hb1).xor(a0)
			we := hb0
			if pb == 1 {
				we = we.xor(te.xor(a0))
			}

			false0[gt.Out] = wg.xor(we)
			tables = append(tables, tg, te)
		default:
			panic("garble: unknown gate op")
		}
	}
	dst.Tables = tables

	if cap(dst.DecodeBits) < len(c.Outputs) {
		dst.DecodeBits = make([]byte, len(c.Outputs))
	}
	decode := dst.DecodeBits[:len(c.Outputs)]
	for i, w := range c.Outputs {
		decode[i] = false0[w].color()
	}
	dst.DecodeBits = decode

	// dst owns its encoding storage; false0 is Garbler scratch that the
	// next instance overwrites.
	if cap(dst.Encoding.Inputs) < c.NumInputs {
		dst.Encoding.Inputs = make([]Label, c.NumInputs)
	}
	ins := dst.Encoding.Inputs[:c.NumInputs]
	copy(ins, false0[:c.NumInputs])
	dst.Encoding.Inputs = ins
	dst.Encoding.R = r
}

// batchMinInstances is the batch size below which spawning workers costs
// more than the garbling they'd overlap.
const batchMinInstances = 3

// GarbleBatch garbles len(bases) instances of one circuit in a single pass:
// the instance entropy is drawn from src with one bulk read (in the exact
// order sequential Garble calls would consume it, so outputs are
// bit-identical to garbling each instance in turn on the same stream), and
// the instances then fan out across a worker pool, each worker reusing one
// Garbler's scratch and hasher across all instances it claims. bases[i] is
// instance i's gateIndexBase. Per-instance outputs are independently
// allocated so callers can retain or release them individually.
func GarbleBatch(c *boolcirc.Circuit, src io.Reader, bases []uint64) []*Garbled {
	out := make([]*Garbled, len(bases))
	if len(bases) == 0 {
		return out
	}
	per := (1 + c.NumInputs) * LabelSize
	buf := make([]byte, len(bases)*per)
	if src == nil {
		src = rand.Reader
	}
	if _, err := io.ReadFull(src, buf); err != nil {
		panic("garble: entropy source failed: " + err.Error())
	}

	workers := runtime.GOMAXPROCS(0)
	if len(bases) < workers {
		workers = len(bases)
	}
	if workers <= 1 || len(bases) < batchMinInstances {
		g := NewGarbler()
		for i := range bases {
			dst := &Garbled{}
			g.garbleCore(dst, c, buf[i*per:(i+1)*per], bases[i])
			out[i] = dst
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			g := NewGarbler()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bases) {
					return
				}
				dst := &Garbled{}
				g.garbleCore(dst, c, buf[i*per:(i+1)*per], bases[i])
				out[i] = dst
			}
		}()
	}
	wg.Wait()
	return out
}

// Evaluator evaluates garbled circuits through reusable scratch: one fixed-key
// hasher and one active-label workspace that grows to the largest circuit
// seen, so a warm Eval allocates only the bits it returns. The zero value is
// ready; an Evaluator is not safe for concurrent use.
type Evaluator struct {
	h      Hasher
	active []Label
}

// evaluators serves the one-shot Eval, so callers without an Evaluator of
// their own still pay for a key schedule and a workspace once, not per call.
var evaluators = sync.Pool{New: func() any { return new(Evaluator) }}

// Eval evaluates one garbled circuit on a pooled Evaluator.
func Eval(c *boolcirc.Circuit, tables []Label, decode []byte, inputs []Label, gateIndexBase uint64) ([]bool, error) {
	e := evaluators.Get().(*Evaluator)
	defer evaluators.Put(e)
	return e.Eval(c, tables, decode, inputs, gateIndexBase)
}

// Eval evaluates the garbled circuit given active labels for every input
// (including the constant-one wire, whose true label the garbler always
// supplies). It returns the decoded output bits.
func (e *Evaluator) Eval(c *boolcirc.Circuit, tables []Label, decode []byte, inputs []Label, gateIndexBase uint64) ([]bool, error) {
	if len(inputs) != c.NumInputs {
		return nil, fmt.Errorf("garble: got %d input labels, want %d", len(inputs), c.NumInputs)
	}
	if len(tables) != 2*c.NumAND() {
		return nil, fmt.Errorf("garble: got %d table entries, want %d", len(tables), 2*c.NumAND())
	}
	if e.h.block == nil {
		e.h = NewHasher()
	}
	h := &e.h

	// Every gate writes its output wire before any later gate reads it, so
	// labels a previous circuit left in the workspace are never observed.
	if cap(e.active) < c.NumWires {
		e.active = make([]Label, c.NumWires)
	}
	active := e.active[:c.NumWires]
	copy(active, inputs)

	ti := 0
	gateIndex := gateIndexBase
	for _, g := range c.Gates {
		switch g.Op {
		case boolcirc.XOR:
			active[g.Out] = active[g.A].xor(active[g.B])
		case boolcirc.AND:
			a := active[g.A]
			b := active[g.B]
			sa := a.color()
			sb := b.color()
			tg := tables[ti]
			te := tables[ti+1]
			ti += 2
			j0 := gateIndex
			j1 := gateIndex + 1
			gateIndex += 2

			wg := h.Hash(a, j0)
			if sa == 1 {
				wg = wg.xor(tg)
			}
			we := h.Hash(b, j1)
			if sb == 1 {
				we = we.xor(te.xor(a))
			}
			active[g.Out] = wg.xor(we)
		}
	}

	out := make([]bool, len(c.Outputs))
	for i, w := range c.Outputs {
		out[i] = active[w].color()^decode[i] == 1
	}
	return out, nil
}

// TableBytes returns the size in bytes of the garbled tables for c — what
// the garbler must transmit and the evaluator store, per instance. This is
// the quantity behind the paper's 18.2 KB/ReLU storage figure.
func TableBytes(c *boolcirc.Circuit) int {
	return 2 * LabelSize * c.NumAND()
}
