package garble

import (
	"crypto/rand"
	"crypto/subtle"
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

// chunk is the number of units one pass over a gate list carries: enough for
// the gate decode and the hash call to amortise, few enough that a ReLU's
// slab (≈ 780 wires × 16 units × 16 bytes) stays in cache.
const chunk = 16

// workspace is the scratch of one pass: the hasher, the wire-major label slab
// and an AND gate's hash run with its tweaks. It grows to the largest chunk
// seen; Garbler and Evaluator each own one.
type workspace struct {
	h      Hasher
	wires  []byte
	stage  []Label
	tweaks []uint64
}

// prepare sizes the workspace for k units of c with perAND hashes per unit
// and AND gate, and returns the slab's row length (one wire across the chunk).
// The slab is not cleared: every gate writes its output wire before a later
// gate reads it, and inputs are written first.
func (w *workspace) prepare(c *boolcirc.Circuit, k, perAND int) int {
	if w.h.block == nil {
		w.h = NewHasher()
	}
	row := k * LabelSize
	w.wires = grow(w.wires, c.NumWires*row)
	w.stage = grow(w.stage, perAND*k)
	w.tweaks = grow(w.tweaks, perAND*k)
	return row
}

// grow returns s resized to n, reallocated only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// slot returns unit u's label in a slab row.
func slot(row []byte, u int) *Label { return (*Label)(row[u*LabelSize:]) }

// Garbler garbles circuits through reusable scratch (the workspace and a
// bulk-entropy buffer), so repeated garbling allocates nothing beyond each
// instance's retained outputs — and nothing at all via GarbleInto when the
// destination is reused. The zero value is ready; a Garbler is not safe for
// concurrent use, and GarbleBatch gives each worker its own.
type Garbler struct {
	workspace
	rbuf []byte
}

// NewGarbler returns a Garbler.
func NewGarbler() *Garbler { return new(Garbler) }

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
// never aliased to Garbler scratch). It is GarbleBatch's core on one unit:
// the entropy read is (1 + NumInputs)×16 bytes, R first, then one label per
// input wire.
func (g *Garbler) GarbleInto(dst *Garbled, c *boolcirc.Circuit, src io.Reader, gateIndexBase uint64) {
	g.rbuf = grow(g.rbuf, (1+c.NumInputs)*LabelSize)
	readEntropy(src, g.rbuf)
	g.garbleCore([]*Garbled{dst}, c, g.rbuf, []uint64{gateIndexBase}, Fixed{})
}

func readEntropy(src io.Reader, buf []byte) {
	if src == nil {
		src = rand.Reader
	}
	if _, err := io.ReadFull(src, buf); err != nil {
		panic("garble: entropy source failed: " + err.Error())
	}
}

// Fixed is what the garbler is given rather than draws. It pins the
// circuit inputs whose values the garbler knows when it garbles to given
// active labels: with n = len(Wires) and j = u·n + k, input Wires[k] of
// unit u carries Values[j] and gets the false label A ⊕ Values[j]·R, A the
// j-th 16-byte label of Active, so its active label is A. An evaluator that
// can rebuild Active (delphi expands it from a public seed with
// ExpandSeed) needs nothing shipped for those inputs. A non-nil R is every
// unit's free-XOR offset, its colour bit set, and a keyed Hash (see
// KeyedHasher) replaces the fixed-key hash: delphi gives the OT
// extension's s and a key of the pre-compute's own. Each unit still reads
// its full entropy slot and leaves the given parts unused, so the other
// inputs' labels are those GarbleBatch draws from the same stream.
type Fixed struct {
	Wires  []int
	Values []bool
	Active []byte
	R      *Label
	Hash   Hasher
}

// chunkOf returns the part of f for units [lo, hi).
func (f Fixed) chunkOf(lo, hi int) Fixed {
	n := len(f.Wires)
	return Fixed{Wires: f.Wires, Values: f.Values[lo*n : hi*n], Active: f.Active[lo*n*LabelSize : hi*n*LabelSize], R: f.R}
}

// garbleCore runs the half-gates pass over c for one chunk of units at once:
// unit u has tweak base bases[u], randomness rnd[u·per:(u+1)·per] (R's bytes
// followed by the input labels' bytes), the pinned inputs of fix's unit u and
// output dsts[u].
func (g *Garbler) garbleCore(dsts []*Garbled, c *boolcirc.Circuit, rnd []byte, bases []uint64, fix Fixed) {
	k := len(dsts)
	row := g.prepare(c, k, 4)
	wires, stage, tweaks := g.wires, g.stage, g.tweaks
	per := (1 + c.NumInputs) * LabelSize
	nand, nfix := c.NumAND(), len(fix.Wires)

	var rs [chunk]words
	for u, dst := range dsts {
		in := rnd[u*per : (u+1)*per]
		// Global offset with color bit forced to 1 (point-and-permute).
		r := (*Label)(in)
		if fix.R != nil {
			r = fix.R
		}
		rs[u] = load(r)
		rs[u].lo |= 1
		for w := 0; w < c.NumInputs; w++ {
			copy(wires[w*row+u*LabelSize:], in[(1+w)*LabelSize:(2+w)*LabelSize])
		}
		for i, w := range fix.Wires {
			l := load((*Label)(fix.Active[(u*nfix+i)*LabelSize:]))
			if fix.Values[u*nfix+i] {
				l = l.xor(rs[u])
			}
			l.store(slot(wires[w*row:], u))
		}
		dst.Tables = grow(dst.Tables, 2*nand)
	}

	t := 0 // table index of the next AND gate, and its tweak offset
	for _, gt := range c.Gates {
		a := wires[gt.A*row : (gt.A+1)*row]
		b := wires[gt.B*row : (gt.B+1)*row]
		out := wires[gt.Out*row : (gt.Out+1)*row]
		switch gt.Op {
		case boolcirc.XOR:
			subtle.XORBytes(out, a, b)
		case boolcirc.AND:
			// Each distinct (label, tweak) pair is hashed exactly once: a0
			// and a0 ⊕ R under j0, b0 and b0 ⊕ R under j1 = j0 + 1.
			for u := 0; u < k; u++ {
				a0, b0 := load(slot(a, u)), load(slot(b, u))
				a0.store(&stage[4*u])
				a0.xor(rs[u]).store(&stage[4*u+1])
				b0.store(&stage[4*u+2])
				b0.xor(rs[u]).store(&stage[4*u+3])
				j0 := bases[u] + uint64(t)
				tweaks[4*u], tweaks[4*u+1], tweaks[4*u+2], tweaks[4*u+3] = j0, j0, j0+1, j0+1
			}
			g.h.HashBatch(stage, stage, tweaks)
			for u, dst := range dsts {
				a0, b0 := load(slot(a, u)), load(slot(b, u))
				pa, pb := a0.colorMask(), b0.colorMask()
				ha0, ha1 := load(&stage[4*u]), load(&stage[4*u+1])
				hb0, hb1 := load(&stage[4*u+2]), load(&stage[4*u+3])
				// Generator half gate: tg = H(a0) ⊕ H(a1) ⊕ pb·R, wg =
				// H(a0) ⊕ pa·tg.
				tg := ha0.xor(ha1).xor(rs[u].and(pb))
				wg := ha0.xor(tg.and(pa))
				// Evaluator half gate: te = H(b0) ⊕ H(b1) ⊕ a0, and we is
				// H(b0), or H(b1) when b0's color is set.
				te := hb0.xor(hb1).xor(a0)
				we := hb0.xor(hb0.xor(hb1).and(pb))
				tg.store(&dst.Tables[t])
				te.store(&dst.Tables[t+1])
				wg.xor(we).store(slot(out, u))
			}
			t += 2
		default:
			panic("garble: unknown gate op")
		}
	}

	// dst owns its decode bits and encoding; the slab is scratch the next
	// chunk overwrites.
	for u, dst := range dsts {
		dst.DecodeBits = grow(dst.DecodeBits, len(c.Outputs))
		for i, w := range c.Outputs {
			dst.DecodeBits[i] = wires[w*row+u*LabelSize] & 1
		}
		dst.Encoding.Inputs = grow(dst.Encoding.Inputs, c.NumInputs)
		for w := range dst.Encoding.Inputs {
			dst.Encoding.Inputs[w] = *slot(wires[w*row:], u)
		}
		rs[u].store(&dst.Encoding.R)
	}
}

// GarbleBatch garbles len(bases) instances of one circuit in a single pass:
// the instance entropy is drawn from src with one bulk read (in the exact
// order sequential Garble calls would consume it, so outputs are
// bit-identical to garbling each instance in turn on the same stream), and
// the instances are garbled a chunk at a time, the chunks fanned out across a
// worker pool with one Garbler per worker. bases[i] is instance i's
// gateIndexBase. Per-instance outputs are independently allocated so callers
// can retain or release them individually.
func GarbleBatch(c *boolcirc.Circuit, src io.Reader, bases []uint64) []*Garbled {
	return GarbleBatchFixed(c, src, bases, Fixed{})
}

// GarbleBatchFixed is GarbleBatch with what fix gives in place of what it
// would draw, in every instance; fix.Wires must be circuit inputs.
func GarbleBatchFixed(c *boolcirc.Circuit, src io.Reader, bases []uint64, fix Fixed) []*Garbled {
	n := len(bases)
	out := make([]*Garbled, n)
	if n == 0 {
		return out
	}
	per := (1 + c.NumInputs) * LabelSize
	buf := make([]byte, n*per)
	readEntropy(src, buf)

	chunks := (n + chunk - 1) / chunk
	newGarbler := func() *Garbler { return &Garbler{workspace: workspace{h: fix.Hash}} }
	run := func(g *Garbler, i int) {
		lo, hi := i*chunk, min((i+1)*chunk, n)
		for u := lo; u < hi; u++ {
			out[u] = &Garbled{}
		}
		g.garbleCore(out[lo:hi], c, buf[lo*per:hi*per], bases[lo:hi], fix.chunkOf(lo, hi))
	}
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if workers <= 1 {
		g := newGarbler()
		for i := 0; i < chunks; i++ {
			run(g, i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			g := newGarbler()
			for i := int(next.Add(1)) - 1; i < chunks; i = int(next.Add(1)) - 1 {
				run(g, i)
			}
		}()
	}
	wg.Wait()
	return out
}

// Evaluator evaluates garbled circuits through a reusable workspace that
// grows to the largest chunk seen, so a warm Eval or EvalBatch allocates only
// the bits it returns. The zero value is ready; an Evaluator is not safe for
// concurrent use.
type Evaluator struct {
	workspace
}

// evaluators serves the pooled Eval and EvalBatch, so callers without an
// Evaluator of their own (delphi evaluates each layer on one) pay for a key
// schedule and a workspace once, not per call.
var evaluators = sync.Pool{New: func() any { return new(Evaluator) }}

// fixedHash is the fixed-key hash the pooled Eval hands its Evaluator.
var fixedHash = NewHasher()

// Eval evaluates one garbled circuit under the fixed-key hash on a pooled
// Evaluator.
func Eval(c *boolcirc.Circuit, tables []Label, decode []byte, inputs []Label, gateIndexBase uint64) ([]bool, error) {
	return EvalBatch(fixedHash, c, [][]Label{tables}, decode, inputs, []uint64{gateIndexBase})
}

// EvalBatch evaluates a batch of garbled units under the hash h, the one
// they were garbled under, on a pooled Evaluator.
func EvalBatch(h Hasher, c *boolcirc.Circuit, tables [][]Label, decode []byte, inputs []Label, bases []uint64) ([]bool, error) {
	e := evaluators.Get().(*Evaluator)
	defer evaluators.Put(e)
	e.h = h
	return e.EvalBatch(c, tables, decode, inputs, bases)
}

// Eval evaluates the garbled circuit given active labels for every input,
// the constant-one wire's included. It returns the decoded output bits. It
// is EvalBatch on one unit.
func (e *Evaluator) Eval(c *boolcirc.Circuit, tables []Label, decode []byte, inputs []Label, gateIndexBase uint64) ([]bool, error) {
	return e.EvalBatch(c, [][]Label{tables}, decode, inputs, []uint64{gateIndexBase})
}

// EvalBatch evaluates len(bases) garbled instances of c: unit u has tables
// tables[u], decode bits decode[u·nOut:(u+1)·nOut] (one byte a bit, nOut =
// len(c.Outputs)), tweak base bases[u] and active input labels
// inputs[u·NumInputs:(u+1)·NumInputs]. It returns the decoded output bits
// unit-major, nOut per unit. Every unit is checked before any is
// evaluated, and an error names the first malformed one.
func (e *Evaluator) EvalBatch(c *boolcirc.Circuit, tables [][]Label, decode []byte, inputs []Label, bases []uint64) ([]bool, error) {
	n, nOut := len(bases), len(c.Outputs)
	if len(tables) != n {
		return nil, fmt.Errorf("garble: %d units but %d tables", n, len(tables))
	}
	if len(decode) != n*nOut {
		return nil, fmt.Errorf("garble: got %d decode bits for %d units, want %d", len(decode), n, n*nOut)
	}
	if len(inputs) != n*c.NumInputs {
		return nil, fmt.Errorf("garble: got %d input labels for %d units, want %d", len(inputs), n, n*c.NumInputs)
	}
	nand := c.NumAND()
	for u := 0; u < n; u++ {
		if len(tables[u]) != 2*nand {
			return nil, fmt.Errorf("garble: unit %d: got %d table entries, want %d", u, len(tables[u]), 2*nand)
		}
	}
	out := make([]bool, n*nOut)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		e.evalCore(out[lo*nOut:hi*nOut], c, tables[lo:hi], decode[lo*nOut:hi*nOut], inputs[lo*c.NumInputs:hi*c.NumInputs], bases[lo:hi])
	}
	return out, nil
}

// evalCore evaluates one chunk of already validated units into bits.
func (e *Evaluator) evalCore(bits []bool, c *boolcirc.Circuit, tables [][]Label, decode []byte, inputs []Label, bases []uint64) {
	k := len(bases)
	row := e.prepare(c, k, 2)
	wires, stage, tweaks := e.wires, e.stage, e.tweaks
	for u := 0; u < k; u++ {
		for w, l := range inputs[u*c.NumInputs : (u+1)*c.NumInputs] {
			*slot(wires[w*row:], u) = l
		}
	}

	t := 0 // table index of the next AND gate, and its tweak offset
	for _, g := range c.Gates {
		a := wires[g.A*row : (g.A+1)*row]
		b := wires[g.B*row : (g.B+1)*row]
		out := wires[g.Out*row : (g.Out+1)*row]
		switch g.Op {
		case boolcirc.XOR:
			subtle.XORBytes(out, a, b)
		case boolcirc.AND:
			for u := 0; u < k; u++ {
				load(slot(a, u)).store(&stage[2*u])
				load(slot(b, u)).store(&stage[2*u+1])
				j0 := bases[u] + uint64(t)
				tweaks[2*u], tweaks[2*u+1] = j0, j0+1
			}
			e.h.HashBatch(stage, stage, tweaks)
			for u := 0; u < k; u++ {
				la, lb := load(slot(a, u)), load(slot(b, u))
				tg, te := load(&tables[u][t]), load(&tables[u][t+1])
				wg := load(&stage[2*u]).xor(tg.and(la.colorMask()))
				we := load(&stage[2*u+1]).xor(te.xor(la).and(lb.colorMask()))
				wg.xor(we).store(slot(out, u))
			}
			t += 2
		}
	}

	nOut := len(c.Outputs)
	for u := 0; u < k; u++ {
		for i, w := range c.Outputs {
			bits[u*nOut+i] = wires[w*row+u*LabelSize]&1^decode[u*nOut+i] == 1
		}
	}
}

// TableBytes returns the size in bytes of the garbled tables for c — what
// the garbler must transmit and the evaluator store, per instance. This is
// the quantity behind the paper's 18.2 KB/ReLU storage figure.
func TableBytes(c *boolcirc.Circuit) int {
	return 2 * LabelSize * c.NumAND()
}
