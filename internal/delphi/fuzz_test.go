package delphi

import (
	"bytes"
	"encoding"
	"testing"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/bin/bintest"
	"privinf/internal/boolcirc"
	"privinf/internal/field"
	"privinf/internal/garble"
	"privinf/internal/nn"
	"privinf/internal/ot"
	"privinf/internal/transport"
)

// FuzzGCLayerPayload drives the evaluator's store of a garbled layer —
// receiveGC and its one parser, parseGCLayer — with attacker-controlled
// payloads for a small public layer shape: 3 units of a 20-bit ReLU, whose
// 60 decode bits leave 4 padding bits in the block's last byte. It must
// never panic, must refuse every length but the exact one and every
// exact-length payload with a padding bit set and hold nothing for it, and
// otherwise must hold the payload in place: the received frame is the
// store, byte for byte, the tables and decode block the parser gives are
// views into it, and the bytes held are the payload's, no more. Nothing a
// peer sends can make the evaluator hold more than the public shape
// implies, nor find two encodings of one layer.
func FuzzGCLayerPayload(f *testing.F) {
	const units = 3
	fld := field.New(field.P20)
	circ := boolcirc.BuildReLU(boolcirc.ReLUSpec{P: fld.P(), Frac: 4})
	exact := gcLayerBytes(circ, units)
	f.Add(make([]byte, exact))
	for _, last := range []byte{0x80, 0x10} { // the top and the lowest padding bit
		padded := make([]byte, exact)
		padded[exact-1] = last
		f.Add(padded)
	}
	patterned := make([]byte, exact)
	for i := range patterned {
		patterned[i] = byte(i*29 + 7)
	}
	patterned[exact-1] &= 0x0F
	f.Add(patterned)
	f.Add(make([]byte, exact-1))
	f.Add(make([]byte, exact+garble.LabelSize))
	f.Add([]byte{1, 2, 3})
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, payload []byte) {
		conn, peer := transport.Pipe()
		p := &party{conn: conn, f: fld, cfg: Config{Variant: ClientGarbler},
			meta: ModelMeta{Dims: []LayerDim{{Out: units}}}, circuits: []*boolcirc.Circuit{circ}}
		var err error
		if p.otRecv, err = ot.ResumeReceiver(conn, &ot.ReceiverState{}, []byte("fuzz")); err != nil {
			t.Fatal(err)
		}
		if err := peer.Send(payload); err != nil {
			t.Fatal(err)
		}
		pre := new(gcPre)
		err = p.receiveGC(pre, nil, new(time.Duration))
		st := pre.stored[0]
		if len(payload) != exact || payload[exact-1]>>4 != 0 {
			if err == nil || st.frame != nil || pre.storeBytes() != 0 {
				t.Fatalf("accepted or held a %d-byte payload", len(payload))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.frame, payload) || st.known != nil {
			t.Fatalf("stored a frame other than the %d-byte payload", len(payload))
		}
		if held := pre.storeBytes() - pre.recvOTs[0].SizeBytes(); held != uint64(len(payload)) {
			t.Fatalf("evaluator holds %d bytes for a %d-byte layer", held, len(payload))
		}
		l, err := parseGCLayer(circ, units, st.frame)
		if err != nil {
			t.Fatal(err)
		}
		if want := (units*len(circ.Outputs) + 7) / 8; len(l.Decode) != want || len(l.Tables) != units*garble.TableBytes(circ) {
			t.Fatalf("%d table and %d decode bytes, want %d and %d", len(l.Tables), len(l.Decode), units*garble.TableBytes(circ), want)
		}
		if &l.Tables[0] != &st.frame[garble.LabelSize] || &l.Decode[0] != &st.frame[exact-len(l.Decode)] {
			t.Fatal("the tables or the decode block are not views into the stored frame")
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
