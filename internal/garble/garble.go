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

// Garbled is one garbled circuit instance in per-unit form, the form
// GarbleBatch and GarbleInto give: Tables and DecodeBits are what the
// evaluator receives; Encoding stays with the garbler for input encoding
// and OT.
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
	l := e.Inputs[i]
	if v {
		load(&l).xor(load(&e.R)).store(&l)
	}
	return l
}

// Layer is a batch of garbled units of one circuit, flat, as it travels:
// Tables holds unit u's tables at u·TableBytes(c), and Decode the units'
// decode bits, unit-major, packed eight a byte, least significant bit
// first — output i of unit u is bit u·len(c.Outputs) + i. GarbleBatchFixed
// writes a Layer and EvalBatch reads one; both take each slice at exactly
// the size of their units, and neither keeps it.
type Layer struct {
	Tables, Decode []byte
}

// decodeBit returns unit u's decode bit for output i of c.
func (l Layer) decodeBit(c *boolcirc.Circuit, u, i int) byte {
	j := u*len(c.Outputs) + i
	return l.Decode[j/8] >> (j % 8) & 1
}

// chunk is the number of units one pass over a gate list carries: enough for
// the gate decode and the hash call to amortise, few enough that a ReLU's
// slab (≈ 780 wires × 16 units × 16 bytes) stays in cache. A multiple of 8,
// so that each chunk's packed decode bits start on a byte of their own and
// concurrent chunks never write one byte.
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

// Garbler garbles circuits through reusable scratch (the workspace, the pin
// mask and a buffer for one unit's entropy and flat output), so repeated
// garbling allocates nothing beyond each instance's retained outputs — and
// nothing at all via GarbleInto when the destination is reused. The zero
// value is ready; a Garbler is not safe for concurrent use, and GarbleBatch
// gives each worker its own.
type Garbler struct {
	workspace
	pin  []bool
	rbuf []byte
}

// GarbleInto garbles c into dst, reusing dst's existing storage when its
// capacity suffices (Tables, DecodeBits and Encoding.Inputs are resized,
// never aliased to Garbler scratch). It is GarbleBatch's core on one unit:
// the entropy read is (1 + NumInputs)×16 bytes, R first, then one label per
// input wire.
func (g *Garbler) GarbleInto(dst *Garbled, c *boolcirc.Circuit, src io.Reader, gateIndexBase uint64) {
	per, tb := (1+c.NumInputs)*LabelSize, TableBytes(c)
	g.rbuf = grow(g.rbuf, per+tb+(len(c.Outputs)+7)/8)
	readEntropy(src, g.rbuf[:per])
	l := Layer{Tables: g.rbuf[per : per+tb], Decode: g.rbuf[per+tb:]}
	g.garbleCore(l, c, g.rbuf[:per], []uint64{gateIndexBase}, Fixed{}, 0, 1)
	dst.set(c, l, 0, g.rbuf[:per])
}

// set makes g unit u of l, a unit garbled on entropy rnd with nothing
// fixed: R's bytes, then every input's false label.
func (g *Garbled) set(c *boolcirc.Circuit, l Layer, u int, rnd []byte) {
	tb := TableBytes(c)
	g.Tables = grow(g.Tables, tb/LabelSize)
	for t := range g.Tables {
		g.Tables[t] = Label(l.Tables[u*tb+t*LabelSize:])
	}
	g.DecodeBits = grow(g.DecodeBits, len(c.Outputs))
	for i := range g.DecodeBits {
		g.DecodeBits[i] = l.decodeBit(c, u, i)
	}
	g.Encoding.Inputs = grow(g.Encoding.Inputs, c.NumInputs)
	for w := range g.Encoding.Inputs {
		g.Encoding.Inputs[w] = Label(rnd[(1+w)*LabelSize:])
	}
	g.Encoding.R = Label(rnd)
	g.Encoding.R[0] |= 1
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
// extension's s and a key of the pre-compute's own. A unit reads from the
// entropy source only what it is not given (see GarbleBatchFixed): a unit
// whose R and inputs are all given reads nothing.
type Fixed struct {
	Wires  []int
	Values []bool
	Active []byte
	R      *Label
	Hash   Hasher
}

// garbleCore runs the half-gates pass over c for units [lo, hi) of a batch
// at once: unit u has tweak base bases[u], randomness rnd[u·per:(u+1)·per]
// (what GarbleBatchFixed draws), the pinned inputs of fix's unit u, and
// output unit u of dst. Every slice is the whole batch's.
func (g *Garbler) garbleCore(dst Layer, c *boolcirc.Circuit, rnd []byte, bases []uint64, fix Fixed, lo, hi int) {
	k := hi - lo
	row := g.prepare(c, k, 4)
	wires, stage, tweaks := g.wires, g.stage, g.tweaks
	per, nfix, tb := len(rnd)/len(bases), len(fix.Wires), TableBytes(c)
	g.pin = grow(g.pin, c.NumInputs)
	clear(g.pin)
	for _, w := range fix.Wires {
		g.pin[w] = true
	}

	var rs [chunk]words
	for u := 0; u < k; u++ {
		in, j := rnd[(lo+u)*per:(lo+u+1)*per], lo+u
		// Global offset with color bit forced to 1 (point-and-permute).
		if fix.R != nil {
			rs[u] = load(fix.R)
		} else {
			rs[u], in = load((*Label)(in)), in[LabelSize:]
		}
		rs[u].lo |= 1
		for w := 0; w < c.NumInputs; w++ {
			if !g.pin[w] {
				*slot(wires[w*row:], u), in = Label(in), in[LabelSize:]
			}
		}
		for i, w := range fix.Wires {
			l := load((*Label)(fix.Active[(j*nfix+i)*LabelSize:]))
			if fix.Values[j*nfix+i] {
				l = l.xor(rs[u])
			}
			l.store(slot(wires[w*row:], u))
		}
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
				j0 := bases[lo+u] + uint64(t)
				tweaks[4*u], tweaks[4*u+1], tweaks[4*u+2], tweaks[4*u+3] = j0, j0, j0+1, j0+1
			}
			g.h.HashBatch(stage, stage, tweaks)
			o := lo*tb + t*LabelSize // unit u's entry t lies at o + u·tb
			for u := 0; u < k; u, o = u+1, o+tb {
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
				tab := dst.Tables[o : o+2*LabelSize : o+2*LabelSize]
				tg.store((*Label)(tab))
				te.store((*Label)(tab[LabelSize:]))
				wg.xor(we).store(slot(out, u))
			}
			t += 2
		default:
			panic("garble: unknown gate op")
		}
	}

	// The chunk's decode bits fill bytes of their own (see chunk); the slab
	// is scratch the next chunk overwrites.
	nOut := len(c.Outputs)
	clear(dst.Decode[lo*nOut/8 : (hi*nOut+7)/8])
	for u := 0; u < k; u++ {
		for i, w := range c.Outputs {
			j := (lo+u)*nOut + i
			dst.Decode[j/8] |= wires[w*row+u*LabelSize] & 1 << (j % 8)
		}
	}
}

// GarbleBatch garbles len(bases) instances of one circuit in a single pass:
// the instance entropy is drawn from src with one bulk read (in the exact
// order sequential Garble calls would consume it, so outputs are
// bit-identical to garbling each instance in turn on the same stream), and
// the instances are garbled as GarbleBatchFixed garbles them, then copied
// out one by one. bases[i] is instance i's gateIndexBase. Per-instance
// outputs are independently allocated so callers can retain or release
// them individually.
func GarbleBatch(c *boolcirc.Circuit, src io.Reader, bases []uint64) []*Garbled {
	n, per := len(bases), (1+c.NumInputs)*LabelSize
	l := Layer{Tables: make([]byte, n*TableBytes(c)), Decode: make([]byte, (n*len(c.Outputs)+7)/8)}
	rnd := GarbleBatchFixed(c, src, bases, Fixed{}, l)
	out := make([]*Garbled, n)
	for u := range out {
		out[u] = new(Garbled)
		out[u].set(c, l, u, rnd[u*per:(u+1)*per])
	}
	return out
}

// GarbleBatchFixed garbles len(bases) units of c into dst, unit u under
// tweak base bases[u], with what fix gives in place of what it would draw;
// fix.Wires must be distinct circuit inputs, and dst's slices exactly the
// size of len(bases) units. The units' entropy is one bulk read from src
// (nil means crypto/rand), unit-major, and a unit reads only what fix does
// not give: R's 16 bytes unless fix.R is set, then, in wire order, the
// false label of every input fix does not pin. With nothing given that is
// GarbleInto's read. It returns what it read, so a caller that keeps the
// unpinned inputs' false labels takes them from there; the tables and
// decode bits go to dst and nowhere else. The units are garbled a chunk at
// a time, the chunks fanned out across a worker pool with one Garbler per
// worker.
func GarbleBatchFixed(c *boolcirc.Circuit, src io.Reader, bases []uint64, fix Fixed, dst Layer) []byte {
	n, per := len(bases), c.NumInputs-len(fix.Wires)
	if fix.R == nil {
		per++
	}
	rnd := make([]byte, n*per*LabelSize)
	readEntropy(src, rnd)
	chunks := (n + chunk - 1) / chunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			g := &Garbler{workspace: workspace{h: fix.Hash}}
			for i := int(next.Add(1)) - 1; i < chunks; i = int(next.Add(1)) - 1 {
				g.garbleCore(dst, c, rnd, bases, fix, i*chunk, min((i+1)*chunk, n))
			}
		}()
	}
	wg.Wait()
	return rnd
}

// Evaluator evaluates garbled circuits through a reusable workspace that
// grows to the largest chunk seen, so a warm EvalBatch allocates only the
// bits it returns. The zero value is ready; an Evaluator is not safe for
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

// Eval evaluates one garbled circuit under the fixed-key hash, given active
// labels for every input, the constant-one wire's included, and the tables
// and decode bits (one a byte) in per-unit form. It returns the decoded
// output bits. It is EvalBatch on one unit, laid out flat first.
func Eval(c *boolcirc.Circuit, tables []Label, decode []byte, inputs []Label, gateIndexBase uint64) ([]bool, error) {
	if len(decode) != len(c.Outputs) {
		return nil, fmt.Errorf("garble: got %d decode bits, want %d", len(decode), len(c.Outputs))
	}
	l := Layer{Tables: make([]byte, 0, len(tables)*LabelSize), Decode: make([]byte, (len(decode)+7)/8)}
	for _, t := range tables {
		l.Tables = append(l.Tables, t[:]...)
	}
	for i, d := range decode {
		l.Decode[i/8] |= d & 1 << (i % 8)
	}
	return EvalBatch(fixedHash, c, l, inputs, []uint64{gateIndexBase})
}

// EvalBatch evaluates a batch of garbled units under the hash h, the one
// they were garbled under, on a pooled Evaluator.
func EvalBatch(h Hasher, c *boolcirc.Circuit, l Layer, inputs []Label, bases []uint64) ([]bool, error) {
	e := evaluators.Get().(*Evaluator)
	defer evaluators.Put(e)
	e.h = h
	return e.EvalBatch(c, l, inputs, bases)
}

// EvalBatch evaluates len(bases) garbled units of c, laid out in l: unit u
// has tweak base bases[u] and active input labels
// inputs[u·NumInputs:(u+1)·NumInputs]. It reads the tables where l holds
// them and copies none. It returns the decoded output bits unit-major,
// len(c.Outputs) per unit. The batch's sizes are checked before any unit
// is evaluated.
func (e *Evaluator) EvalBatch(c *boolcirc.Circuit, l Layer, inputs []Label, bases []uint64) ([]bool, error) {
	n, nOut, tb := len(bases), len(c.Outputs), TableBytes(c)
	if len(l.Tables) != n*tb || len(l.Decode) != (n*nOut+7)/8 || len(inputs) != n*c.NumInputs {
		return nil, fmt.Errorf("garble: %d units take %d table bytes, %d decode bytes and %d input labels; got %d, %d and %d",
			n, n*tb, (n*nOut+7)/8, n*c.NumInputs, len(l.Tables), len(l.Decode), len(inputs))
	}
	out := make([]bool, n*nOut)
	for lo := 0; lo < n; lo += chunk {
		e.evalCore(out, c, l, inputs, bases, lo, min(lo+chunk, n))
	}
	return out, nil
}

// evalCore evaluates units [lo, hi) of an already validated batch into
// bits; every slice is the whole batch's.
func (e *Evaluator) evalCore(bits []bool, c *boolcirc.Circuit, l Layer, inputs []Label, bases []uint64, lo, hi int) {
	k, tb := hi-lo, TableBytes(c)
	row := e.prepare(c, k, 2)
	wires, stage, tweaks := e.wires, e.stage, e.tweaks
	for u := 0; u < k; u++ {
		for w, in := range inputs[(lo+u)*c.NumInputs : (lo+u+1)*c.NumInputs] {
			*slot(wires[w*row:], u) = in
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
				j0 := bases[lo+u] + uint64(t)
				tweaks[2*u], tweaks[2*u+1] = j0, j0+1
			}
			e.h.HashBatch(stage, stage, tweaks)
			o := lo*tb + t*LabelSize // unit u's entry t lies at o + u·tb
			for u := 0; u < k; u, o = u+1, o+tb {
				la, lb := load(slot(a, u)), load(slot(b, u))
				tab := l.Tables[o : o+2*LabelSize : o+2*LabelSize]
				tg, te := load((*Label)(tab)), load((*Label)(tab[LabelSize:]))
				wg := load(&stage[2*u]).xor(tg.and(la.colorMask()))
				we := load(&stage[2*u+1]).xor(te.xor(la).and(lb.colorMask()))
				wg.xor(we).store(slot(out, u))
			}
			t += 2
		}
	}

	for u := 0; u < k; u++ {
		for i, w := range c.Outputs {
			bits[(lo+u)*len(c.Outputs)+i] = wires[w*row+u*LabelSize]&1^l.decodeBit(c, lo+u, i) == 1
		}
	}
}

// TableBytes returns the size in bytes of the garbled tables for c — what
// the garbler must transmit and the evaluator store, per instance. This is
// the quantity behind the paper's 18.2 KB/ReLU storage figure.
func TableBytes(c *boolcirc.Circuit) int {
	return 2 * LabelSize * c.NumAND()
}
