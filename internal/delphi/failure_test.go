package delphi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"privinf/internal/field"
	"privinf/internal/garble"
	"privinf/internal/nn"
	"privinf/internal/ot"
	"privinf/internal/transport"
)

// TestOverTCP runs a full private inference across real loopback sockets
// rather than in-process pipes.
func TestOverTCP(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 77)
	if err != nil {
		t.Fatal(err)
	}
	params := heParams(f.P())
	cfg := Config{Variant: ClientGarbler, HEParams: params}

	cliConn, srvConn, cleanup, err := transport.TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	server, err := newTestServer(srvConn, cfg, model, newSeeded(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cliConn, cfg, MetaOf(model), newSeeded(2))
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- server.Setup() }()
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	offCh := make(chan error, 1)
	go func() {
		_, err := server.RunOffline()
		offCh <- err
	}()
	if _, err := client.RunOffline(); err != nil {
		t.Fatal(err)
	}
	if err := <-offCh; err != nil {
		t.Fatal(err)
	}

	onCh := make(chan error, 1)
	go func() {
		_, err := server.RunOnline()
		onCh <- err
	}()
	x := make([]uint64, model.InputLen())
	for i := range x {
		x[i] = uint64(i % 7)
	}
	out, _, err := client.RunOnline(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-onCh; err != nil {
		t.Fatal(err)
	}

	want := model.Forward(x)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("TCP inference output %d: %d != %d", i, out[i], want[i])
		}
	}
}

// TestEvaluatorRejectsMalformedGCPayload feeds wrong-length garbled-circuit
// messages to the storing party of each variant. Both run the one
// receive-and-store role, so the cases are one table over who evaluates.
func TestEvaluatorRejectsMalformedGCPayload(t *testing.T) {
	model, err := nn.DemoMLP(field.New(field.P20), 3)
	if err != nil {
		t.Fatal(err)
	}
	params := heParams(model.F.P())
	shared, err := NewSharedModel(params, model)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []struct {
		name    string
		variant Variant
	}{
		{"evaluator=client", ServerGarbler},
		{"evaluator=server", ClientGarbler},
	} {
		want := gcLayerBytes(shared.circuits[0], model.Linear[0].Out())
		for _, tc := range []struct {
			name string
			size int
		}{
			{"short payload", 3},
			{"long payload", want + 1},
			{"truncated label block", want - garble.LabelSize/2},
		} {
			t.Run(ev.name+"/"+tc.name, func(t *testing.T) {
				cfg := Config{Variant: ev.variant, HEParams: params}
				conn, atkConn := transport.Pipe()
				var p *party
				var own [][]uint64
				if ev.variant == ServerGarbler {
					client, err := NewClient(conn, cfg, MetaOf(model), newSeeded(4))
					if err != nil {
						t.Fatal(err)
					}
					p = &client.party
					for l := range p.circuits {
						own = append(own, make([]uint64, 2*model.Linear[l].Out()))
					}
				} else {
					server, err := NewServerShared(conn, cfg, shared, newSeeded(5))
					if err != nil {
						t.Fatal(err)
					}
					p = &server.party
				}
				// The evaluator sends the layer's u frame first.
				if p.otRecv, err = ot.ResumeReceiver(conn, &ot.ReceiverState{}, []byte("attack")); err != nil {
					t.Fatal(err)
				}
				if err := atkConn.Send(make([]byte, tc.size)); err != nil {
					t.Fatal(err)
				}
				err := p.receiveGC(new(gcPre), own, new(time.Duration))
				if err == nil || !strings.Contains(err.Error(), "payload") {
					t.Fatalf("want payload-size error, got %v", err)
				}
			})
		}
	}
}

// TestOfflineHERejectsGarbageCiphertext injects a corrupt ciphertext into
// the server's HE receive path.
func TestOfflineHERejectsGarbageCiphertext(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := heParams(f.P())
	cfg := Config{Variant: ServerGarbler, HEParams: params}
	srvConn, atkConn := transport.Pipe()
	server, err := newTestServer(srvConn, cfg, model, newSeeded(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := atkConn.Send([]byte("not a ciphertext")); err != nil {
		t.Fatal(err)
	}
	if err := server.offlineHE(&serverPre{}); err == nil {
		t.Fatal("corrupt ciphertext must be rejected")
	}
}

// Wire-encoding round trips and validation.
func TestWireEncodings(t *testing.T) {
	v := []uint64{0, 1, 1 << 62, 42}
	ca, cb := transport.Pipe()
	a, b := party{conn: ca}, party{conn: cb}
	for _, want := range []int{len(v), 3, 5} {
		if err := a.sendVec(v); err != nil {
			t.Fatal(err)
		}
		got, err := b.recvVec(want)
		if (err == nil) != (want == len(v)) {
			t.Fatalf("recvVec(%d) of a %d-word vector: err = %v", want, len(v), err)
		}
		if err == nil && !reflect.DeepEqual(got, v) {
			t.Fatalf("vec round trip: got %v, want %v", got, v)
		}
	}

	bits := []bool{true, false, true, true, false, false, false, true, true}
	gotBits, err := decodeBits(encodeBits(bits), len(bits))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bits {
		if gotBits[i] != bits[i] {
			t.Fatalf("bit round trip at %d", i)
		}
	}
	if _, err := decodeBits(encodeBits(bits), 100); err == nil {
		t.Fatal("bit length mismatch must error")
	}
	// 3 units of a 20-bit ReLU output: 60 bits in 8 bytes, 4 of them padding.
	// Each packing has one encoding, so a set padding bit is rejected.
	sixty := valueBits([]uint64{0xfffff, 0x5a5a5, 0x00001}, 20)
	packed := encodeBits(sixty)
	if got, err := decodeBits(packed, len(sixty)); err != nil || !reflect.DeepEqual(got, sixty) {
		t.Fatalf("60-bit round trip: %v", err)
	}
	for pad := 60; pad < 64; pad++ {
		bad := append([]byte(nil), packed...)
		bad[pad/8] ^= 1 << (pad % 8)
		if _, err := decodeBits(bad, len(sixty)); err == nil {
			t.Fatalf("padding bit %d set: accepted", pad)
		}
	}
}

// TestClientChecksALabelFrame: a Server-Garbler client evaluates straight
// from the server's a-label frame once its length is checked: a frame a
// label short or a byte long is refused before anything is evaluated.
func TestClientChecksALabelFrame(t *testing.T) {
	model, err := nn.DemoMLP(field.New(field.P20), 3)
	if err != nil {
		t.Fatal(err)
	}
	x := randomInput(model.F, model.InputLen(), 4)
	want := model.Linear[0].Out() * model.F.Bits() * garble.LabelSize
	for _, size := range []int{want - garble.LabelSize, want + 1} {
		s := newSession(t, ServerGarbler, model, 0)
		s.offline(t)
		if err := s.server.conn.Send(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		_, _, err := s.client.RunOnline(x)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("label payload %d bytes, want %d", size, want)) {
			t.Fatalf("%d-byte a-label frame: error %v, want a label payload size error", size, err)
		}
	}
}

func TestGateBaseUniqueness(t *testing.T) {
	seen := map[uint64]bool{}
	for layer := 0; layer < 8; layer++ {
		for unit := 0; unit < 300; unit++ {
			b := gateBase(layer, unit)
			if seen[b] {
				t.Fatalf("gateBase collision at layer %d unit %d", layer, unit)
			}
			seen[b] = true
		}
	}
	// Tweak ranges of adjacent units must not overlap for realistic
	// circuit sizes (< 2^21 hash calls per unit).
	if gateBase(0, 1)-gateBase(0, 0) < 1<<21 {
		t.Fatal("unit tweak spacing too small")
	}
}

func TestValueBits(t *testing.T) {
	bits := valueBits([]uint64{5, 2}, 4)
	want := []bool{true, false, true, false, false, true, false, false}
	if len(bits) != len(want) {
		t.Fatalf("length %d, want %d", len(bits), len(want))
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d", i)
		}
	}
}
