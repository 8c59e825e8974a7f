package garble

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"privinf/internal/boolcirc"
	"privinf/internal/field"
	"privinf/internal/nn"
)

// unitCounts straddle the chunk boundary: none, one, a chunk short of one
// unit, a full chunk, one past it, and two chunks and a partial third.
var unitCounts = []int{0, 1, chunk - 1, chunk, chunk + 1, 2*chunk + 3}

// oracleCircuits are the shapes the cores are compared on: the ReLU at both
// primes and random DAGs of every gate kind.
func oracleCircuits() []*boolcirc.Circuit {
	rng := rand.New(rand.NewSource(70))
	circs := []*boolcirc.Circuit{
		boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P17, Frac: 2}),
		boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P20, Frac: 6}),
	}
	for i := 0; i < 6; i++ {
		circs = append(circs, randomCircuit(rng, 1+rng.Intn(10), 1+rng.Intn(80)))
	}
	return circs
}

// activeInputs draws each unit's input bits (const-one set) and returns them
// with the flat unit-major active labels EvalBatch takes.
func activeInputs(rng *rand.Rand, c *boolcirc.Circuit, gs []*Garbled) ([][]bool, []Label) {
	bits := make([][]bool, len(gs))
	flat := make([]Label, 0, len(gs)*c.NumInputs)
	for u, g := range gs {
		bits[u] = make([]bool, c.NumInputs)
		for i := range bits[u] {
			bits[u][i] = i == boolcirc.ConstOne || rng.Intn(2) == 1
			flat = append(flat, g.Encoding.EncodeInput(i, bits[u][i]))
		}
	}
	return bits, flat
}

// flatLayer lays garbled units out as the Layer EvalBatch takes: tables
// back to back, decode bits packed eight a byte.
func flatLayer(gs []*Garbled) Layer {
	var l Layer
	var bits []byte
	for _, g := range gs {
		for _, t := range g.Tables {
			l.Tables = append(l.Tables, t[:]...)
		}
		bits = append(bits, g.DecodeBits...)
	}
	l.Decode = make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		l.Decode[i/8] |= b << (i % 8)
	}
	return l
}

// newLayer returns a zeroed Layer for n units of c.
func newLayer(c *boolcirc.Circuit, n int) Layer {
	return Layer{Tables: make([]byte, n*TableBytes(c)), Decode: make([]byte, (n*len(c.Outputs)+7)/8)}
}

// unitOf reads unit u of l back into per-unit tables and decode bits, one a
// byte.
func unitOf(c *boolcirc.Circuit, l Layer, u int) ([]Label, []byte) {
	tb, nOut := TableBytes(c), len(c.Outputs)
	tables := make([]Label, tb/LabelSize)
	for t := range tables {
		tables[t] = Label(l.Tables[u*tb+t*LabelSize:])
	}
	decode := make([]byte, nOut)
	for i := range decode {
		j := u*nOut + i
		decode[i] = l.Decode[j/8] >> (j % 8) & 1
	}
	return tables, decode
}

// unitBases mirrors delphi's gateBase layout: arbitrary, non-uniform.
func unitBases(ci, n int) []uint64 {
	bases := make([]uint64, n)
	for u := range bases {
		bases[u] = uint64(ci)<<44 | uint64(u*3)<<22
	}
	return bases
}

// TestCoresMatchOracle: on every shape and unit count, GarbleBatch produces
// the tables, decode bits and encodings the per-unit reference garbler
// produces from the same entropy stream, one GarbleInto per unit does too,
// and EvalBatch on those units decodes exactly what the reference evaluator
// does unit by unit — which is also the plain circuit's output.
func TestCoresMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for ci, c := range oracleCircuits() {
		per := (1 + c.NumInputs) * LabelSize
		for _, n := range unitCounts {
			bases := unitBases(ci, n)
			rnd := make([]byte, n*per)
			newSeeded(int64(ci*100 + n)).Read(rnd)

			got := GarbleBatch(c, newSeeded(int64(ci*100+n)), bases)
			g := new(Garbler)
			into := &Garbled{}
			for u := range bases {
				want := oracleGarble(c, rnd[u*per:(u+1)*per], bases[u])
				if !garbledEqual(got[u], want) {
					t.Fatalf("circuit %d n=%d: GarbleBatch unit %d differs from the reference", ci, n, u)
				}
				g.GarbleInto(into, c, bytes.NewReader(rnd[u*per:(u+1)*per]), bases[u])
				if !garbledEqual(into, want) {
					t.Fatalf("circuit %d n=%d: GarbleInto unit %d differs from the reference", ci, n, u)
				}
			}

			bits, flat := activeInputs(rng, c, got)
			var ev Evaluator
			out, err := ev.EvalBatch(c, flatLayer(got), flat, bases)
			if err != nil {
				t.Fatal(err)
			}
			nOut := len(c.Outputs)
			if len(out) != n*nOut {
				t.Fatalf("circuit %d n=%d: %d output bits, want %d", ci, n, len(out), n*nOut)
			}
			for u := range got {
				want := oracleEval(c, got[u].Tables, got[u].DecodeBits, flat[u*c.NumInputs:(u+1)*c.NumInputs], bases[u])
				if !reflect.DeepEqual(out[u*nOut:(u+1)*nOut], want) {
					t.Fatalf("circuit %d n=%d: EvalBatch unit %d decodes %v, the reference %v", ci, n, u, out[u*nOut:(u+1)*nOut], want)
				}
				if plain := c.Eval(bits[u]); !reflect.DeepEqual(want, plain) {
					t.Fatalf("circuit %d n=%d: unit %d decodes %v, plain evaluation %v", ci, n, u, want, plain)
				}
			}
		}
	}
}

// TestHashBatchMatchesHash: a run hashed at once equals each label hashed
// alone, by Hash and by the pre-batch one-block hash, into a separate
// destination and in place.
func TestHashBatchMatchesHash(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	h, ref := NewHasher(), newOracleHasher()
	for _, n := range []int{0, 1, 2, 3, 64, 1000} {
		src := make([]Label, n)
		tweaks := make([]uint64, n)
		for k := range src {
			rng.Read(src[k][:])
			tweaks[k] = rng.Uint64()
		}
		want := make([]Label, n)
		for k := range src {
			want[k] = ref.Hash(src[k], tweaks[k])
			if one := h.Hash(src[k], tweaks[k]); one != want[k] {
				t.Fatalf("n=%d label %d: Hash differs from the one-block reference", n, k)
			}
		}
		dst := make([]Label, n)
		h.HashBatch(dst, src, tweaks)
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("n=%d: HashBatch into a separate destination differs", n)
		}
		h.HashBatch(src, src, tweaks)
		if !reflect.DeepEqual(src, want) {
			t.Fatalf("n=%d: HashBatch in place differs", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HashBatch accepted a short tweak slice")
		}
	}()
	h.HashBatch(make([]Label, 2), make([]Label, 2), make([]uint64, 1))
}

// TestEvalBatchAllocs: a warm Evaluator allocates the bits EvalBatch returns
// and nothing else, whatever the number of units.
func TestEvalBatchAllocs(t *testing.T) {
	c := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P20, Frac: 6})
	rng := rand.New(rand.NewSource(73))
	var ev Evaluator
	var counts []float64
	for _, n := range []int{chunk + 1, 1, chunk, 3*chunk + 5} {
		bases := unitBases(0, n)
		gs := GarbleBatch(c, newSeeded(int64(n)), bases)
		_, flat := activeInputs(rng, c, gs)
		l := flatLayer(gs)
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := ev.EvalBatch(c, l, flat, bases); err != nil {
				t.Fatal(err)
			}
		}))
	}
	for _, n := range counts {
		if n != 1 {
			t.Fatalf("allocs per EvalBatch at n = %d, 1, %d, %d: %v, want 1 each", chunk+1, chunk, 3*chunk+5, counts)
		}
	}
}

// TestGarbleIntoAllocs: the scheduler-refill path, one Garbler and one
// destination reused, allocates nothing.
func TestGarbleIntoAllocs(t *testing.T) {
	c := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P20, Frac: 6})
	g, dst := new(Garbler), &Garbled{}
	src := NewPRG([LabelSize]byte{1})
	g.GarbleInto(dst, c, src, 0)
	if n := testing.AllocsPerRun(5, func() { g.GarbleInto(dst, c, src, 0) }); n != 0 {
		t.Fatalf("warm GarbleInto allocates %v times, want 0", n)
	}
}

// demoCNNLayer is the demo CNN's first ReLU layer: its circuit and its width
// (256 units), as delphi builds them.
func demoCNNLayer(tb testing.TB) (*boolcirc.Circuit, int) {
	m, err := nn.DemoCNN(field.New(field.P20), 5)
	if err != nil {
		tb.Fatal(err)
	}
	return boolcirc.BuildReLU(boolcirc.ReLUSpec{P: m.F.P(), Frac: m.Shifts[0]}), m.Linear[0].Out()
}

// BenchmarkEvalLayer is what the Client-Garbler server does online per demo
// CNN layer: one EvalBatch over its 256 units.
func BenchmarkEvalLayer(b *testing.B) {
	c, n := demoCNNLayer(b)
	bases := unitBases(0, n)
	gs := GarbleBatch(c, NewPRG([LabelSize]byte{2}), bases)
	_, flat := activeInputs(rand.New(rand.NewSource(74)), c, gs)
	l := flatLayer(gs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ev Evaluator // one per layer, as delphi holds it
		if _, err := ev.EvalBatch(c, l, flat, bases); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/unit")
}

// pinnedFix pins const-one and every third other input of c for n units,
// with random values (const-one carries 1) and active labels expanded from
// seed.
func pinnedFix(rng *rand.Rand, c *boolcirc.Circuit, n int, seed [LabelSize]byte) Fixed {
	fix := Fixed{Wires: []int{boolcirc.ConstOne}}
	for w := 1; w < c.NumInputs; w += 3 {
		fix.Wires = append(fix.Wires, w)
	}
	fix.Active = make([]byte, n*len(fix.Wires)*LabelSize)
	ExpandSeed(fix.Active, seed)
	for i := 0; i < n*len(fix.Wires); i++ {
		fix.Values = append(fix.Values, i%len(fix.Wires) == 0 || rng.Intn(2) == 1)
	}
	return fix
}

// TestPinnedInputsMatchOracle: GarbleBatchFixed reads a unit's R and then,
// in wire order, a label for each input it does not pin, and returns what it
// read; its tables and decode bits equal the per-unit reference garbler's
// on the slot that layout implies — R, then every input's false label, a
// pinned input's being its active label ⊕ value·R and the others' the
// unit's next entropy label — and EvalBatch on the pinned inputs' given
// active labels plus random other inputs decodes what the reference
// evaluator and the plain circuit do.
func TestPinnedInputsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for ci, c := range oracleCircuits() {
		for _, n := range unitCounts {
			bases := unitBases(ci, n)
			fix := pinnedFix(rng, c, n, [LabelSize]byte{byte(ci), byte(n)})
			nf := len(fix.Wires)
			pinned := map[int]int{}
			for k, w := range fix.Wires {
				pinned[w] = k
			}
			per := (1 + c.NumInputs - nf) * LabelSize
			rnd := make([]byte, n*per)
			newSeeded(int64(ci*100 + n)).Read(rnd)

			l := newLayer(c, n)
			if read := GarbleBatchFixed(c, newSeeded(int64(ci*100+n)), bases, fix, l); !bytes.Equal(read, rnd) {
				t.Fatalf("circuit %d n=%d: read %d entropy bytes, want the %d of R and the unpinned labels", ci, n, len(read), len(rnd))
			}
			bits := make([][]bool, n)
			flat := make([]Label, 0, n*c.NumInputs)
			for u := range bases {
				src := rnd[u*per : (u+1)*per]
				r := Label(src)
				r[0] |= 1
				unit, next := append([]byte(nil), src[:LabelSize]...), src[LabelSize:]
				bits[u] = make([]bool, c.NumInputs)
				for w := range bits[u] {
					var zero, active Label
					if k, ok := pinned[w]; ok {
						active, bits[u][w] = Label(fix.Active[(u*nf+k)*LabelSize:]), fix.Values[u*nf+k]
						if zero = active; bits[u][w] {
							zero = zero.xor(r)
						}
					} else {
						zero, next, bits[u][w] = Label(next), next[LabelSize:], rng.Intn(2) == 1
						if active = zero; bits[u][w] {
							active = active.xor(r)
						}
					}
					unit = append(unit, zero[:]...)
					flat = append(flat, active)
				}
				want := oracleGarble(c, unit, bases[u])
				if tables, decode := unitOf(c, l, u); !reflect.DeepEqual(tables, want.Tables) || !bytes.Equal(decode, want.DecodeBits) {
					t.Fatalf("circuit %d n=%d: pinned unit %d differs from the reference", ci, n, u)
				}
			}

			out, err := EvalBatch(fixedHash, c, l, flat, bases)
			if err != nil {
				t.Fatal(err)
			}
			nOut := len(c.Outputs)
			for u := range bases {
				tables, decode := unitOf(c, l, u)
				want := oracleEval(c, tables, decode, flat[u*c.NumInputs:(u+1)*c.NumInputs], bases[u])
				if !reflect.DeepEqual(out[u*nOut:(u+1)*nOut], want) || !reflect.DeepEqual(want, c.Eval(bits[u])) {
					t.Fatalf("circuit %d n=%d unit %d: EvalBatch %v, reference %v, plain %v", ci, n, u, out[u*nOut:(u+1)*nOut], want, c.Eval(bits[u]))
				}
			}
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestGarblerReadsOnlyWhatItUses: a unit reads entropy only for what it is
// not given. On the demo CNN's ReLU (20-bit shares) with R given, as delphi
// garbles: a Client-Garbler layer pins every input (const-one, b and r to
// the seed, a to the OT rows) and reads nothing; a Server-Garbler layer
// pins const-one, b and r and reads a's 20 labels, 320 B a unit. With
// nothing given, GarbleBatchFixed, GarbleBatch and GarbleInto read R and
// every input's label, (1 + NumInputs)·16 B a unit.
func TestGarblerReadsOnlyWhatItUses(t *testing.T) {
	c, units := demoCNNLayer(t)
	width := (c.NumInputs - 1) / 3
	r := Label{1}
	all := make([]int, c.NumInputs)
	for w := range all {
		all[w] = w
	}
	full := (1 + c.NumInputs) * LabelSize
	for _, tc := range []struct {
		name string
		fix  Fixed
		per  int
	}{
		{"client garbler", Fixed{Wires: all, R: &r}, 0},
		{"server garbler", Fixed{Wires: append([]int{boolcirc.ConstOne}, all[1+width:]...), R: &r}, 320},
		{"nothing given", Fixed{}, full},
	} {
		nf := len(tc.fix.Wires)
		tc.fix.Values, tc.fix.Active = make([]bool, units*nf), make([]byte, units*nf*LabelSize)
		src := &countingReader{r: NewPRG([LabelSize]byte{9})}
		read := GarbleBatchFixed(c, src, unitBases(0, units), tc.fix, newLayer(c, units))
		if src.n != units*tc.per || len(read) != src.n {
			t.Fatalf("%s: %d units read %d entropy bytes and returned %d, want %d a unit", tc.name, units, src.n, len(read), tc.per)
		}
	}
	src := &countingReader{r: NewPRG([LabelSize]byte{9})}
	GarbleBatch(c, src, unitBases(0, 3))
	new(Garbler).GarbleInto(new(Garbled), c, src, 0)
	if src.n != 4*full {
		t.Fatalf("GarbleBatch of 3 units and one GarbleInto read %d bytes, want %d", src.n, 4*full)
	}
}

// TestExpandSeedIsPRGStream: ExpandSeed writes NewPRG's stream over a dirty
// destination, for lengths on and off the AES block size, and allocates
// only the key schedule and the CTR state.
func TestExpandSeedIsPRGStream(t *testing.T) {
	seed := [LabelSize]byte{3, 1, 4}
	for _, n := range []int{0, 1, 15, 16, 17, 1000, 4096} {
		want := make([]byte, n)
		NewPRG(seed).Read(want)
		got := bytes.Repeat([]byte{0xA5}, n)
		ExpandSeed(got, seed)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: ExpandSeed differs from the PRG stream", n)
		}
	}
	dst := make([]byte, 4096)
	if n := testing.AllocsPerRun(5, func() { ExpandSeed(dst, seed) }); n > 2 {
		t.Fatalf("ExpandSeed allocates %v times, want at most 2", n)
	}
}

// TestGivenOffsetAndKey: a layer garbled with a given offset R and a keyed
// hash uses R as every unit's offset, colour bit kept, evaluates to the
// plain circuit under the same key, and decodes another output under the
// fixed key or another key. Its input labels are the ones the fixed-key
// garbling of the same stream draws, and every unit's tables differ from
// that garbling's: the key, not the tweak, keeps two pre-computes' hashes
// apart.
func TestGivenOffsetAndKey(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	c := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P20, Frac: 6})
	const n = 40
	bases := unitBases(1, n)
	var r Label
	rng.Read(r[:])
	r[0] |= 1
	key := KeyedHasher([LabelSize]byte{7})
	got, plain := newLayer(c, n), newLayer(c, n)
	read := GarbleBatchFixed(c, newSeeded(77), bases, Fixed{R: &r, Hash: key}, got)
	if plainRead := GarbleBatchFixed(c, newSeeded(77), bases, Fixed{R: &r}, plain); !bytes.Equal(read, plainRead) || len(read) != n*c.NumInputs*LabelSize {
		t.Fatalf("read %d and %d entropy bytes, want the same %d: every input's label and no R", len(read), len(plainRead), n*c.NumInputs*LabelSize)
	}
	gs := make([]*Garbled, n)
	tb := TableBytes(c)
	for u := range gs {
		gs[u] = &Garbled{Encoding: Encoding{R: r}}
		for w := 0; w < c.NumInputs; w++ {
			gs[u].Encoding.Inputs = append(gs[u].Encoding.Inputs, Label(read[(u*c.NumInputs+w)*LabelSize:]))
		}
		if bytes.Equal(got.Tables[u*tb:(u+1)*tb], plain.Tables[u*tb:(u+1)*tb]) {
			t.Fatalf("unit %d: the keyed tables equal the fixed-key ones", u)
		}
	}
	bits, flat := activeInputs(rng, c, gs)
	nOut := len(c.Outputs)
	for _, h := range []struct {
		name string
		hash Hasher
		ok   bool
	}{{"its key", key, true}, {"the fixed key", fixedHash, false}, {"another key", KeyedHasher([LabelSize]byte{8}), false}} {
		out, err := EvalBatch(h.hash, c, got, flat, bases)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for u := range gs {
			same = same && reflect.DeepEqual(out[u*nOut:(u+1)*nOut], c.Eval(bits[u]))
		}
		if same != h.ok {
			t.Fatalf("evaluated under %s: every unit decodes the plain output: %v, want %v", h.name, same, h.ok)
		}
	}
}
