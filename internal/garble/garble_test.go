package garble

import (
	"encoding/binary"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"privinf/internal/boolcirc"
	"privinf/internal/field"
)

type seededReader struct{ rng *rand.Rand }

func newSeeded(seed int64) *seededReader {
	return &seededReader{rng: rand.New(rand.NewSource(seed))}
}

func (s *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Intn(256))
	}
	return len(p), nil
}

// Garble garbles one instance of c on a fresh Garbler: GarbleInto's
// per-unit form, which the tests below take as their garbling.
func Garble(c *boolcirc.Circuit, src io.Reader, gateIndexBase uint64) *Garbled {
	dst := &Garbled{}
	new(Garbler).GarbleInto(dst, c, src, gateIndexBase)
	return dst
}

// garbleAndEval garbles c, encodes the given user inputs directly (as if
// all labels were delivered), evaluates, and returns decoded outputs.
func garbleAndEval(t *testing.T, c *boolcirc.Circuit, user []bool, seed int64) []bool {
	t.Helper()
	g := Garble(c, newSeeded(seed), 0)
	inputs := make([]Label, c.NumInputs)
	inputs[boolcirc.ConstOne] = g.Encoding.EncodeInput(boolcirc.ConstOne, true)
	for i, v := range user {
		inputs[i+1] = g.Encoding.EncodeInput(i+1, v)
	}
	out, err := Eval(c, g.Tables, g.DecodeBits, inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGarbledGatesMatchPlain(t *testing.T) {
	b := boolcirc.NewBuilder(2)
	x, y := b.Input(0), b.Input(1)
	b.SetOutputs([]int{b.Xor(x, y), b.And(x, y), b.Or(x, y), b.Not(x)})
	c := b.Finish()

	for _, tc := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		want := c.Eval(append([]bool{true}, tc[:]...))
		got := garbleAndEval(t, c, tc[:], 42)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("inputs %v output %d: garbled %v, plain %v", tc, i, got[i], want[i])
			}
		}
	}
}

func TestGarbledAdderProperty(t *testing.T) {
	const width = 16
	b := boolcirc.NewBuilder(2 * width)
	a := make([]int, width)
	bb := make([]int, width)
	for i := 0; i < width; i++ {
		a[i], bb[i] = b.Input(i), b.Input(width+i)
	}
	sum, carry := b.Add(a, bb)
	b.SetOutputs(append(sum, carry))
	c := b.Finish()

	seed := int64(0)
	check := func(x, y uint16) bool {
		seed++
		user := append(boolcirc.PackBits(uint64(x), width), boolcirc.PackBits(uint64(y), width)...)
		got := boolcirc.UnpackBits(garbleAndEval(t, c, user, seed))
		return got == uint64(x)+uint64(y)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGarbledReLU(t *testing.T) {
	spec := boolcirc.ReLUSpec{P: field.P17, Frac: 2}
	c := boolcirc.BuildReLU(spec)
	width := spec.Width()
	rng := rand.New(rand.NewSource(9))

	for trial := 0; trial < 25; trial++ {
		a := rng.Uint64() % spec.P
		bsh := rng.Uint64() % spec.P
		r := rng.Uint64() % spec.P
		user := append(append(
			boolcirc.PackBits(a, width),
			boolcirc.PackBits(bsh, width)...),
			boolcirc.PackBits(r, width)...)
		got := boolcirc.UnpackBits(garbleAndEval(t, c, user, int64(trial+100)))
		want := boolcirc.ReLUReference(spec, a, bsh, r)
		if got != want {
			t.Fatalf("trial %d: garbled ReLU = %d, want %d", trial, got, want)
		}
	}
}

func TestFreeXOROffsetInvariant(t *testing.T) {
	// For every wire the true label must equal false label ⊕ R; spot-check
	// on inputs, which Encoding exposes.
	b := boolcirc.NewBuilder(3)
	b.SetOutputs([]int{b.And(b.Input(0), b.Xor(b.Input(1), b.Input(2)))})
	c := b.Finish()
	g := Garble(c, newSeeded(5), 0)
	for i := 0; i < c.NumInputs; i++ {
		f, tr := g.Encoding.EncodeInput(i, false), g.Encoding.EncodeInput(i, true)
		if f.xor(g.Encoding.R) != tr {
			t.Fatalf("input %d: label pair not related by R", i)
		}
		if f.color() == tr.color() {
			t.Fatalf("input %d: color bits must differ (R color=1)", i)
		}
	}
}

// naiveTableBytes is the table size under classic 4-row Yao garbling (4
// ciphertexts per gate, XOR not free) — the ablation baseline.
func naiveTableBytes(c *boolcirc.Circuit) int { return 4 * LabelSize * len(c.Gates) }

func TestTableSizes(t *testing.T) {
	spec := boolcirc.ReLUSpec{P: field.P17, Frac: 0}
	c := boolcirc.BuildReLU(spec)
	g := Garble(c, newSeeded(6), 0)
	if got := len(g.Tables) * LabelSize; got != TableBytes(c) {
		t.Fatalf("TableBytes = %d but actual tables are %d bytes", TableBytes(c), got)
	}
	// Half-gates must beat naive 4-row garbling by well over 2x on this
	// XOR-heavy circuit.
	if TableBytes(c)*2 >= naiveTableBytes(c) {
		t.Fatalf("half-gates %d B vs naive %d B: expected > 2x saving", TableBytes(c), naiveTableBytes(c))
	}
}

func TestEvalInputValidation(t *testing.T) {
	b := boolcirc.NewBuilder(2)
	b.SetOutputs([]int{b.And(b.Input(0), b.Input(1))})
	c := b.Finish()
	g := Garble(c, newSeeded(7), 0)
	if _, err := Eval(c, g.Tables, g.DecodeBits, make([]Label, 1), 0); err == nil {
		t.Fatal("short input labels should error")
	}
	if _, err := Eval(c, g.Tables[:0], g.DecodeBits, make([]Label, c.NumInputs), 0); err == nil {
		t.Fatal("short tables should error")
	}

	// A decode slice of the wrong length is an error, not an index panic.
	relu := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: field.P17, Frac: 2})
	bases := []uint64{0, 1 << 22, 2 << 22, 3 << 22}
	gs := GarbleBatch(relu, newSeeded(8), bases)
	inputs := make([]Label, len(bases)*relu.NumInputs)
	for u, g := range gs {
		for i := 0; i < relu.NumInputs; i++ {
			inputs[u*relu.NumInputs+i] = g.Encoding.EncodeInput(i, i == boolcirc.ConstOne)
		}
	}
	one := inputs[:relu.NumInputs]
	for _, decode := range [][]byte{gs[0].DecodeBits[:3], append(gs[0].DecodeBits[:len(gs[0].DecodeBits):len(gs[0].DecodeBits)], 0), nil} {
		if _, err := Eval(relu, gs[0].Tables, decode, one, 0); err == nil {
			t.Fatalf("%d decode bits for %d outputs should error", len(decode), len(relu.Outputs))
		}
	}

	// EvalBatch checks the batch's sizes before it evaluates any unit — a
	// fresh Evaluator still has no slab afterwards.
	cases := map[string]func(l Layer) (Layer, []Label, []uint64){
		"short decode": func(l Layer) (Layer, []Label, []uint64) {
			l.Decode = l.Decode[:len(l.Decode)-1]
			return l, inputs, bases
		},
		"long tables": func(l Layer) (Layer, []Label, []uint64) {
			l.Tables = append(l.Tables, make([]byte, LabelSize)...)
			return l, inputs, bases
		},
		"missing tables": func(l Layer) (Layer, []Label, []uint64) {
			l.Tables = l.Tables[:len(l.Tables)-TableBytes(relu)]
			return l, inputs, bases
		},
		"short inputs": func(l Layer) (Layer, []Label, []uint64) {
			return l, inputs[:len(inputs)-1], bases
		},
		"one unit short": func(l Layer) (Layer, []Label, []uint64) {
			return l, inputs, bases[:3]
		},
	}
	for name, damage := range cases {
		l, in, bs := damage(flatLayer(gs))
		var ev Evaluator
		_, err := ev.EvalBatch(relu, l, in, bs)
		if err == nil || !strings.Contains(err.Error(), "units take") {
			t.Fatalf("%s: error %v, want one naming the batch's sizes", name, err)
		}
		if ev.wires != nil {
			t.Fatalf("%s: evaluation started before the batch was validated", name)
		}
	}
	if _, err := new(Evaluator).EvalBatch(relu, flatLayer(gs), inputs, bases); err != nil {
		t.Fatalf("undamaged batch: %v", err)
	}
}

func TestWrongLabelGivesWrongOutput(t *testing.T) {
	// Flipping an input label to its complement flips the computed AND
	// input — the circuit must decode to the other value, demonstrating
	// labels actually carry the semantics.
	b := boolcirc.NewBuilder(2)
	b.SetOutputs([]int{b.And(b.Input(0), b.Input(1))})
	c := b.Finish()
	g := Garble(c, newSeeded(8), 0)

	inputs := make([]Label, c.NumInputs)
	inputs[boolcirc.ConstOne] = g.Encoding.EncodeInput(boolcirc.ConstOne, true)
	inputs[1] = g.Encoding.EncodeInput(1, true)
	inputs[2] = g.Encoding.EncodeInput(2, true)
	out1, err := Eval(c, g.Tables, g.DecodeBits, inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs[2] = g.Encoding.EncodeInput(2, false)
	out2, err := Eval(c, g.Tables, g.DecodeBits, inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out1[0] != true || out2[0] != false {
		t.Fatalf("AND(true,true)=%v AND(true,false)=%v", out1[0], out2[0])
	}
}

func TestGateIndexBaseIsolation(t *testing.T) {
	// Two instances with different tweak bases must both evaluate
	// correctly (tweaks only need to be consistent garbler/evaluator).
	b := boolcirc.NewBuilder(2)
	b.SetOutputs([]int{b.And(b.Input(0), b.Input(1))})
	c := b.Finish()
	for _, base := range []uint64{0, 1 << 20, 1 << 40} {
		g := Garble(c, newSeeded(11), base)
		inputs := make([]Label, c.NumInputs)
		inputs[boolcirc.ConstOne] = g.Encoding.EncodeInput(boolcirc.ConstOne, true)
		inputs[1] = g.Encoding.EncodeInput(1, true)
		inputs[2] = g.Encoding.EncodeInput(2, true)
		out, err := Eval(c, g.Tables, g.DecodeBits, inputs, base)
		if err != nil {
			t.Fatal(err)
		}
		if !out[0] {
			t.Fatalf("base %d: AND(true,true) = false", base)
		}
	}
}

func TestDoubleLinear(t *testing.T) {
	// σ(x ⊕ y) = σ(x) ⊕ σ(y): linearity required by the half-gates hash,
	// and the word form equals the byte-array form it replaced.
	check := func(xh, xl, yh, yl uint64) bool {
		sh, sl := double(xh^yh, xl^yl)
		ah, al := double(xh, xl)
		bh, bl := double(yh, yl)
		var x Label
		binary.BigEndian.PutUint64(x[0:8], xh)
		binary.BigEndian.PutUint64(x[8:16], xl)
		d := oracleDouble(x)
		return sh == ah^bh && sl == al^bl &&
			binary.BigEndian.Uint64(d[0:8]) == ah && binary.BigEndian.Uint64(d[8:16]) == al
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGarbleReLU(b *testing.B) {
	// The steady-state garbling path (scheduler refill reuses Garbler and
	// destination): must run at 0 allocs/op.
	spec := boolcirc.ReLUSpec{P: field.P20, Frac: 6}
	c := boolcirc.BuildReLU(spec)
	src := newSeeded(12)
	g := new(Garbler)
	dst := &Garbled{}
	g.GarbleInto(dst, c, src, 0) // warm dst capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.GarbleInto(dst, c, src, 0)
	}
	b.ReportMetric(float64(c.NumAND()), "ANDgates")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.NumAND()), "ns/gate")
}

func BenchmarkGarbleBatchReLU(b *testing.B) {
	// 32 instances per batch — the cross-session refill shape — on the
	// AES-CTR stream a serving engine hands GarbleBatch, so the test
	// reader's byte-at-a-time cost is not what is timed.
	spec := boolcirc.ReLUSpec{P: field.P20, Frac: 6}
	c := boolcirc.BuildReLU(spec)
	src := NewPRG([LabelSize]byte{14})
	bases := make([]uint64, 32)
	for i := range bases {
		bases[i] = uint64(i) << 22
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GarbleBatch(c, src, bases)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bases)), "ns/instance")
}

func BenchmarkEvalReLU(b *testing.B) {
	spec := boolcirc.ReLUSpec{P: field.P20, Frac: 6}
	c := boolcirc.BuildReLU(spec)
	g := Garble(c, newSeeded(13), 0)
	inputs := make([]Label, c.NumInputs)
	for i := range inputs {
		inputs[i] = g.Encoding.EncodeInput(i, i == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(c, g.Tables, g.DecodeBits, inputs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGarbleTableSize(b *testing.B) {
	// Ablation: half-gates vs naive table bytes for the ReLU circuit.
	spec := boolcirc.ReLUSpec{P: field.P20, Frac: 6}
	c := boolcirc.BuildReLU(spec)
	b.ReportMetric(float64(TableBytes(c)), "halfgate-bytes")
	b.ReportMetric(float64(naiveTableBytes(c)), "naive-bytes")
	for i := 0; i < b.N; i++ {
		_ = TableBytes(c)
	}
}
