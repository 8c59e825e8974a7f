package delphi

import (
	"encoding"
	"testing"

	"privinf/internal/bfv"
	"privinf/internal/bin/bintest"
	"privinf/internal/boolcirc"
	"privinf/internal/field"
	"privinf/internal/garble"
	"privinf/internal/nn"
	"privinf/internal/ot"
)

// FuzzGCLayerPayload drives the one garbled-layer decoder with
// attacker-controlled payloads for a small public layer shape, with and
// without the garbler's shipped labels. It must never panic, must reject
// every length but the exact one before allocating, and on the exact length
// must store precisely the layer: nothing a peer sends can make the
// evaluator hold more than the public shape implies.
func FuzzGCLayerPayload(f *testing.F) {
	const units = 3
	fld := field.New(field.P20)
	width := fld.Bits()
	circ := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: fld.P(), Frac: 4})
	for _, known := range []int{0, 2 * width} {
		exact := units * gcUnitBytes(circ, known)
		f.Add(make([]byte, exact), known > 0)
		f.Add(make([]byte, exact-1), known > 0)
		f.Add(make([]byte, exact+garble.LabelSize), known > 0)
	}
	f.Add([]byte{1, 2, 3}, false)
	f.Add([]byte(nil), true)

	f.Fuzz(func(t *testing.T, payload []byte, withKnown bool) {
		known := 0
		if withKnown {
			known = 2 * width
		}
		st, err := parseGCLayer(circ, units, known, payload)
		if len(payload) != units*gcUnitBytes(circ, known) {
			if err == nil || st.tables != nil || st.bytes != 0 {
				t.Fatalf("accepted or allocated for a %d-byte payload", len(payload))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.bytes != uint64(len(payload)) || len(st.tables) != units || len(st.known) != units {
			t.Fatalf("stored %d bytes in %d units for a %d-byte payload", st.bytes, len(st.tables), len(payload))
		}
		held := 0
		for u := 0; u < units; u++ {
			if len(st.known[u]) != known {
				t.Fatalf("unit %d holds %d shipped labels, want %d", u, len(st.known[u]), known)
			}
			held += (len(st.tables[u])+1+len(st.known[u]))*garble.LabelSize + len(st.decode[u])
		}
		if held != len(payload) {
			t.Fatalf("evaluator holds %d bytes for a %d-byte layer", held, len(payload))
		}
	})
}

func FuzzSharedModelUnmarshal(f *testing.F) {
	// A toy field and ring (N = 8, p = 17) give one 72-byte weight plaintext
	// a layer, so the seed — header, digest and weights, no circuit — stays
	// a few hundred bytes and mutation reaches every header word.
	params, err := bfv.NewParams(8, 17)
	if err != nil {
		f.Fatal(err)
	}
	model := &nn.Lowered{
		F:    field.New(17),
		Frac: 1,
		Linear: []nn.LinearSpec{
			{W: [][]uint64{{1, 2, 3}, {4, 5, 6}}, B: []uint64{7, 8}},
			{W: [][]uint64{{9, 10}, {11, 12}}, B: []uint64{13, 14}},
			{W: [][]uint64{{15, 16}}, B: []uint64{0}},
		},
		Shifts: []uint{1, 1},
	}
	sm, err := NewSharedModel(params, model)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := sm.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	bintest.FuzzRoundTrip(f, raw, func(data []byte) (encoding.BinaryMarshaler, error) { return UnmarshalSharedModel(data, model) })
}

func FuzzOTResumeUnmarshal(f *testing.F) {
	both := append(append([]byte{otResumeSender | otResumeReceiver},
		patternedOTBytes(ot.SenderStateBytes, 7)...), patternedOTBytes(ot.ReceiverStateBytes, 9)...)
	bintest.FuzzRoundTrip(f, both, func(data []byte) (encoding.BinaryMarshaler, error) { return UnmarshalOTResume(data) })
}
