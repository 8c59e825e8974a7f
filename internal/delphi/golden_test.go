package delphi

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/ot"
	"privinf/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current implementation")

// hashConn digests every payload the client sends (c2s) and receives (s2c),
// in order, so a phase's two byte streams pin down frame order, frame
// sizes and frame contents at once.
type hashConn struct {
	transport.MsgConn
	c2s, s2c hash.Hash
	nc2s     int
	ns2c     int
}

func (h *hashConn) Send(p []byte) error {
	h.c2s.Write(p)
	h.nc2s += len(p)
	return h.MsgConn.Send(p)
}

func (h *hashConn) Recv() ([]byte, error) {
	p, err := h.MsgConn.Recv()
	h.s2c.Write(p)
	h.ns2c += len(p)
	return p, err
}

// cut returns the digest lines of the phase that just ended and resets
// both streams for the next one.
func (h *hashConn) cut(variant Variant, phase string) string {
	tag := "sg"
	if variant == ClientGarbler {
		tag = "cg"
	}
	out := fmt.Sprintf("%s %s c2s %d %s\n%s %s s2c %d %s\n",
		tag, phase, h.nc2s, hex.EncodeToString(h.c2s.Sum(nil)),
		tag, phase, h.ns2c, hex.EncodeToString(h.s2c.Sum(nil)))
	h.c2s, h.s2c, h.nc2s, h.ns2c = sha256.New(), sha256.New(), 0, 0
	return out
}

// TestGCWireGolden pins the offline and online byte streams of both
// variants on the demo MLP, each party on its own seeded entropy stream,
// against digests generated before the garbler/evaluator roles were
// unified: the protocol's wire layout is byte-identical, not merely
// size-identical. Each line is "variant phase direction bytes sha256". The
// digests were regenerated, every byte count unchanged, when the P-256 base
// OT (wire v6) changed how much each party's setup draws from its seeded
// stream, which shifts every later draw; and again, every byte count
// unchanged, when the garbler began expanding each layer's labels from a
// 16-byte seed instead of reading them from its stream. Wire v7 moved
// Client-Garbler's a-label OT extension offline: cg offline s2c grew by
// exactly its u frames and cg online s2c shrank to the d frames (one bit an
// OT) and the output share, while both c2s streams kept every byte and
// digest — the z frames equal the chosen-OT y frames they replace, since
// d = a ⊕ c selects the same pads the receiver's choices a did — and the sg
// lines did not move. Wire v8 cut the ReLU circuit from 163 to 130 AND gates
// at the MLP's shift: only the two table-bearing streams moved (sg offline
// s2c and cg offline c2s, each 50,688 bytes shorter, 32 bytes for each AND
// removed), and the other six lines kept every byte and digest, because the
// label draws, the OT traffic and the output shares do not depend on the
// gate count. Wire v9 made every label OT correlated: cg offline c2s grew
// by the t frames (16 bytes an a-label OT, 15,360 bytes), cg online c2s
// shrank by as much (one masked label an OT instead of two), and sg offline
// s2c kept its byte count and changed its digest (each b/r OT batch is now
// a t and a z frame instead of a y frame); the u frames, and with them
// both s2c lines of Client-Garbler, kept every byte and digest. Wire v10
// sends seeded uploads and modulus-switched, read-slot-only responses: each
// offline c2s line shrank by 3 × 32,760 bytes and each offline s2c line by
// 144,161. Every online line kept its byte count; their digests moved only
// because a seeded upload draws fewer bytes from the client's stream than a
// public-key encryption did, which shifts every later draw (the masks r_i
// of later layers and the garbler's label seeds). With the client's stream
// consumed exactly as before, all four online lines kept their v9 digests.
// Wire v11 ships no label the garbler fixed before garbling: const-one, and
// under Client-Garbler b and r, expand from a 16-byte public seed a layer,
// and the decode bits travel packed. Only the two table-bearing lines moved,
// by the exact count (cg offline c2s −32,296 = 48 units × (41 labels + 17.5
// decode bytes) − 2 seeds, sg offline s2c −1,576 = 48 × (1 label + 17.5) −
// 2 seeds); the other six kept every byte and digest, because every layer's
// secret seed is drawn before its public one, so Δ and the a labels did not
// move. Wire v12 pins Server-Garbler's b and r inputs to the zero pads of
// their OTs and sends no z frame: only sg offline s2c moved, by exactly the
// z payload it lost (−30,720 = 1,920 OTs × 16 bytes) and with a new digest,
// since the tables are garbled on the pads and each layer's t frame now
// follows its record. Every other line kept every byte and digest: the u
// frames depend only on the client's choices and streams, and R and the a
// labels are drawn from the secret seed as before. Wire v13 kept every byte
// count, the MLP's plans being byte-minimal already, and moved all eight
// digests: the client's key generation draws a 16-byte seed where it drew
// all of a, which shifts every later draw of its stream, and the server's
// responses are re-randomized from seeds it draws before each layer's
// product, which shifts its own. Wire v15 runs Client-Garbler's a-label
// OTs inside the layer loop, as Server-Garbler runs its b and r OTs: each
// layer's t frame now follows its record instead of coming after every
// record. Only cg offline c2s moved, its digest and not its 313,544 bytes;
// the other seven lines kept every byte and digest, because the frames
// themselves and every party's draws are as before.
func TestGCWireGolden(t *testing.T) {
	model, err := nn.DemoMLP(field.New(field.P20), 7)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, variant := range []Variant{ServerGarbler, ClientGarbler} {
		cc, sc := transport.Pipe()
		rec := &hashConn{MsgConn: cc, c2s: sha256.New(), s2c: sha256.New()}
		s := newSessionOn(t, variant, model, 0, rec, sc)
		rec.cut(variant, "setup") // the handshake is not the GC layer's to pin
		x := randomInput(model.F, model.InputLen(), 11)
		s.offline(t)
		got.WriteString(rec.cut(variant, "offline"))
		out, _, _ := s.online(t, x)
		got.WriteString(rec.cut(variant, "online"))
		for i, want := range model.Forward(x) {
			if out[i] != want {
				t.Fatalf("%v output %d: private %d, plaintext %d", variant, i, out[i], want)
			}
		}
	}

	path := filepath.Join("testdata", "gc_wire.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("GC wire streams changed (run with -update only for a deliberate wire bump)\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// frameLog records the direction and size of every frame the client sends
// (up) and receives, in the client's program order.
type frameLog struct {
	transport.MsgConn
	frames []loggedFrame
}

type loggedFrame struct {
	up    bool
	bytes int
}

func (f *frameLog) Send(p []byte) error {
	f.frames = append(f.frames, loggedFrame{true, len(p)})
	return f.MsgConn.Send(p)
}

func (f *frameLog) Recv() ([]byte, error) {
	p, err := f.MsgConn.Recv()
	f.frames = append(f.frames, loggedFrame{false, len(p)})
	return p, err
}

// TestLabelOTFlightsPerLayer: both variants run each ReLU layer's label OTs
// as one flight before the layer's record, on the demo MLP: the
// evaluator's u (128·⌈m/8⌉ bytes), then the garbler's record
// (gcLayerBytes), and no t frame, since the OT rows are the labels, with
// m = units·2·width OTs under Server-Garbler (b and r) and units·width
// under Client-Garbler (a). The garbled-circuit leg ends the offline
// phase, so its frames are the last the client sees.
func TestLabelOTFlightsPerLayer(t *testing.T) {
	model, err := nn.DemoMLP(field.New(field.P20), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []Variant{ServerGarbler, ClientGarbler} {
		cc, sc := transport.Pipe()
		log := &frameLog{MsgConn: cc}
		s := newSessionOn(t, variant, model, 0, log, sc)
		log.frames = nil
		s.offline(t)
		width, circuits := model.F.Bits(), s.client.circuits
		garblerUp := variant == ClientGarbler
		gc := log.frames[len(log.frames)-2*len(circuits):]
		for l, circ := range circuits {
			units := model.Linear[l].Out()
			m := units * width
			if variant == ServerGarbler {
				m *= 2
			}
			want := []loggedFrame{{!garblerUp, 128 * ((m + 7) / 8)}, {garblerUp, gcLayerBytes(circ, units)}}
			if got := gc[2*l : 2*l+2]; !slices.Equal(got, want) {
				t.Errorf("%v layer %d: offline frames (up, bytes) %v, want u, then the record: %v", variant, l, got, want)
			}
		}
	}
}

// TestOTResumeGolden pins the byte layout of both roles' resumable base-OT
// state on fixed seed material, so the digests follow the codec and nothing
// else: the states are decoded from a byte pattern by the ot codecs and
// re-encoded inside an OTResume. The digests were generated through the
// codec of the wire-v5 release. Each line is "party bytes sha256".
func TestOTResumeGolden(t *testing.T) {
	snd, rcv := &ot.SenderState{}, &ot.ReceiverState{}
	if err := snd.UnmarshalBinary(patternedOTBytes(ot.SenderStateBytes, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rcv.UnmarshalBinary(patternedOTBytes(ot.ReceiverStateBytes, 2)); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, rec := range []struct {
		name  string
		state *OTResume
	}{
		{"client", &OTResume{Receiver: rcv}},
		{"server", &OTResume{Sender: snd}},
		{"both", &OTResume{Sender: snd, Receiver: rcv}},
	} {
		raw, err := rec.state.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %d %x\n", rec.name, len(raw), sha256.Sum256(raw))
	}

	path := filepath.Join("testdata", "otresume.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("OT resume encodings changed (run with -update only for a deliberate format bump)\ngot:\n%swant:\n%s", got.String(), want)
	}
}
