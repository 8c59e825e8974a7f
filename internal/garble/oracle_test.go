package garble

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"

	"privinf/internal/boolcirc"
)

// The garbling and evaluation loops as they were before the layer-major
// cores, kept as the reference the property tests compare against: one unit
// at a time, one Label per wire, and a one-block hash call for each of an AND
// gate's four (garble) or two (evaluate) hashes. oracleHasher is that hash
// verbatim, σ included, so the reference shares no code with HashBatch;
// Label.xor and Label.color are the reference's own, on the words the cores
// use.

// xor returns a ⊕ b.
func (a Label) xor(b Label) Label {
	var out Label
	load(&a).xor(load(&b)).store(&out)
	return out
}

// color returns the point-and-permute bit.
func (a Label) color() byte { return a[0] & 1 }

type oracleHasher struct {
	block   cipher.Block
	in, out [LabelSize]byte
}

func newOracleHasher() *oracleHasher {
	block, err := aes.NewCipher(fixedKey[:])
	if err != nil {
		panic(err)
	}
	return &oracleHasher{block: block}
}

// oracleDouble is σ on whole labels, as Label.double computed it.
func oracleDouble(a Label) Label {
	hi := binary.BigEndian.Uint64(a[0:8])
	lo := binary.BigEndian.Uint64(a[8:16])
	carry := hi >> 63
	hi = hi<<1 | lo>>63
	lo <<= 1
	if carry == 1 {
		lo ^= 0x87
	}
	var out Label
	binary.BigEndian.PutUint64(out[0:8], hi)
	binary.BigEndian.PutUint64(out[8:16], lo)
	return out
}

func (h *oracleHasher) Hash(x Label, index uint64) Label {
	t := oracleDouble(x)
	// in = σ(x) ⊕ i, with the index in the low 8 bytes (little-endian).
	inLo := binary.LittleEndian.Uint64(t[0:8]) ^ index
	inHi := binary.LittleEndian.Uint64(t[8:16])
	binary.LittleEndian.PutUint64(h.in[0:8], inLo)
	binary.LittleEndian.PutUint64(h.in[8:16], inHi)
	h.block.Encrypt(h.out[:], h.in[:])
	var out Label
	binary.LittleEndian.PutUint64(out[0:8], binary.LittleEndian.Uint64(h.out[0:8])^inLo)
	binary.LittleEndian.PutUint64(out[8:16], binary.LittleEndian.Uint64(h.out[8:16])^inHi)
	return out
}

// oracleGarble is the per-unit garbleCore: the half-gates pass over c with
// instance randomness rnd (R's bytes followed by the input labels' bytes).
func oracleGarble(c *boolcirc.Circuit, rnd []byte, gateIndexBase uint64) *Garbled {
	h := newOracleHasher()
	dst := &Garbled{}

	// Global offset with color bit forced to 1 (point-and-permute).
	var r Label
	copy(r[:], rnd[:LabelSize])
	r[0] |= 1

	false0 := make([]Label, c.NumWires)
	for i := 0; i < c.NumInputs; i++ {
		copy(false0[i][:], rnd[(1+i)*LabelSize:(2+i)*LabelSize])
	}

	tables := make([]Label, 0, 2*c.NumAND())
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

	dst.DecodeBits = make([]byte, len(c.Outputs))
	for i, w := range c.Outputs {
		dst.DecodeBits[i] = false0[w].color()
	}
	dst.Encoding.Inputs = append([]Label(nil), false0[:c.NumInputs]...)
	dst.Encoding.R = r
	return dst
}

// oracleEval is the per-unit Eval, its input checks included.
func oracleEval(c *boolcirc.Circuit, tables []Label, decode []byte, inputs []Label, gateIndexBase uint64) []bool {
	if len(inputs) != c.NumInputs || len(tables) != 2*c.NumAND() {
		panic("oracle: bad input")
	}
	h := newOracleHasher()
	active := make([]Label, c.NumWires)
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
	return out
}
