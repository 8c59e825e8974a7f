package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"privinf/internal/serve"
	"privinf/internal/transport"
)

// The wire constants below mirror the serve package's; the test speaks raw
// bytes on purpose — it plays a peer that is not this codebase.
const (
	wireTagCtrl = 0x01
	wireOpHello = 0x01
	wireVersion = 16
)

// rawHello is a hello control frame claiming the given wire version.
func rawHello(version int) []byte {
	return append([]byte{wireTagCtrl, wireOpHello}, fmt.Sprintf(`{"version":%d}`, version)...)
}

// rejectCode sends an opening's frames on conn and returns the typed code
// of the rejection that answers it.
func rejectCode(t *testing.T, conn *transport.Conn, frames [][]byte) string {
	t.Helper()
	defer conn.Close()
	for _, f := range frames {
		// A peer may answer an early frame and close before the rest
		// arrive; the answer is still read below.
		if err := conn.Send(f); err != nil {
			break
		}
	}
	f, err := conn.Recv()
	if err != nil {
		t.Fatalf("no answer to the opening: %v", err)
	}
	if len(f) < 2 || f[0] != wireTagCtrl {
		t.Fatalf("answer frame %v is not a control frame", f)
	}
	var rej struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(f[2:], &rej); err != nil {
		t.Fatalf("answer body %q is not a rejection: %v", f[2:], err)
	}
	return rej.Code
}

// TestBadOpeningSameAnswerDirectAndRouted: every malformed or
// version-skewed opening gets the same typed rejection whether it reaches
// an engine directly or through the router's peek — one parser, one
// answer, never a silent drop. Openings that cannot be parsed are bad_hello
// (serve.ErrBadFrame); well-formed ones at another wire version are
// version_mismatch (serve.ErrVersionMismatch).
func TestBadOpeningSameAnswerDirectAndRouted(t *testing.T) {
	model := testModel(t, 51)
	eng := newEngine(t, model)
	t.Cleanup(func() { eng.Close() })
	direct := transport.NewPipeListener()
	go eng.Serve(direct)
	_, routed := startFleet(t, model, 1)

	preamble := func(version uint32) []byte { return transport.Preamble{Version: version}.Encode() }
	cases := []struct {
		name   string
		frames [][]byte
		want   error
	}{
		{"empty frame", [][]byte{{}}, serve.ErrBadFrame},
		{"garbage", [][]byte{[]byte("GET / HTTP/1.1")}, serve.ErrBadFrame},
		{"truncated preamble", [][]byte{preamble(wireVersion)[:8]}, serve.ErrBadFrame},
		{"garbage opcode in a v16 preamble", [][]byte{preamble(wireVersion), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrBadFrame},
		{"garbage after a v16 preamble", [][]byte{preamble(wireVersion), {0x5A}}, serve.ErrBadFrame},
		{"preamble v3", [][]byte{preamble(3)}, serve.ErrVersionMismatch},
		{"preamble v4", [][]byte{preamble(4)}, serve.ErrVersionMismatch},
		{"preamble v5", [][]byte{preamble(5)}, serve.ErrVersionMismatch},
		{"preamble v6", [][]byte{preamble(6)}, serve.ErrVersionMismatch},
		{"preamble v7", [][]byte{preamble(7)}, serve.ErrVersionMismatch},
		{"preamble v8", [][]byte{preamble(8)}, serve.ErrVersionMismatch},
		{"preamble v9", [][]byte{preamble(9)}, serve.ErrVersionMismatch},
		{"preamble v10", [][]byte{preamble(10)}, serve.ErrVersionMismatch},
		// v11 is the previous release: its handshake, records and
		// Client-Garbler OTs are v12's, but its Server-Garbler client waits
		// for a z frame after each b/r t frame, where v12's garbler pins
		// those inputs to the OTs' zero pads and sends none.
		{"preamble v11", [][]byte{preamble(11)}, serve.ErrVersionMismatch},
		// v12 is the previous release: its records and OTs are v13's, but
		// its public key is (b, a) where v13 takes seed ‖ b, its responses
		// are not re-randomized, and its plans take one upload a layer.
		{"preamble v12", [][]byte{preamble(12)}, serve.ErrVersionMismatch},
		// v13 is the previous release: its records and OTs are v14's, but a
		// resumed v13 client sends its public key only when the welcome asks,
		// and a v14 server never asks, so it would wait for a key that never
		// comes.
		{"preamble v13", [][]byte{preamble(13)}, serve.ErrVersionMismatch},
		// v14 is the previous release: its handshake, records and frames are
		// v15's, but its Client-Garbler client ships every garbled layer
		// before it runs the a-label OTs, where a v15 server sends each
		// layer's u frame first and takes the frame after the record as t.
		{"preamble v14", [][]byte{preamble(14)}, serve.ErrVersionMismatch},
		// v15 is the previous release: its handshake, records and HE frames
		// are v16's, but its garbler sends a t frame after each garbled
		// layer, which a v16 evaluator would take as the next layer's record.
		{"preamble v15", [][]byte{preamble(15)}, serve.ErrVersionMismatch},
		{"bare v2 hello", [][]byte{rawHello(2)}, serve.ErrVersionMismatch},
		{"v3 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(5)}, serve.ErrVersionMismatch},
		{"v6 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(6)}, serve.ErrVersionMismatch},
		{"v7 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(7)}, serve.ErrVersionMismatch},
		{"v8 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(8)}, serve.ErrVersionMismatch},
		{"v9 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(9)}, serve.ErrVersionMismatch},
		{"v10 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(10)}, serve.ErrVersionMismatch},
		{"v11 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(11)}, serve.ErrVersionMismatch},
		{"v12 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(12)}, serve.ErrVersionMismatch},
		{"v13 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(13)}, serve.ErrVersionMismatch},
		{"v14 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(14)}, serve.ErrVersionMismatch},
		{"v15 hello inside a v16 preamble", [][]byte{preamble(wireVersion), rawHello(15)}, serve.ErrVersionMismatch},
		// Older clients' openings, whatever follows the preamble: the gate
		// answers before anything after it is read, so what a release itself
		// rejected as a bad frame is a version mismatch here.
		{"garbage opcode in a v15 preamble", [][]byte{preamble(15), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v15 preamble", [][]byte{preamble(15), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(5)}, serve.ErrVersionMismatch},
		{"v6 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(6)}, serve.ErrVersionMismatch},
		{"v7 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(7)}, serve.ErrVersionMismatch},
		{"v8 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(8)}, serve.ErrVersionMismatch},
		{"v9 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(9)}, serve.ErrVersionMismatch},
		{"v10 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(10)}, serve.ErrVersionMismatch},
		{"v11 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(11)}, serve.ErrVersionMismatch},
		{"v12 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(12)}, serve.ErrVersionMismatch},
		{"v13 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(13)}, serve.ErrVersionMismatch},
		{"v14 hello inside a v15 preamble", [][]byte{preamble(15), rawHello(14)}, serve.ErrVersionMismatch},
		{"garbage opcode in a v14 preamble", [][]byte{preamble(14), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v14 preamble", [][]byte{preamble(14), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(5)}, serve.ErrVersionMismatch},
		{"v6 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(6)}, serve.ErrVersionMismatch},
		{"v7 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(7)}, serve.ErrVersionMismatch},
		{"v8 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(8)}, serve.ErrVersionMismatch},
		{"v9 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(9)}, serve.ErrVersionMismatch},
		{"v10 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(10)}, serve.ErrVersionMismatch},
		{"v11 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(11)}, serve.ErrVersionMismatch},
		{"v12 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(12)}, serve.ErrVersionMismatch},
		{"v13 hello inside a v14 preamble", [][]byte{preamble(14), rawHello(13)}, serve.ErrVersionMismatch},
		{"garbage opcode in a v13 preamble", [][]byte{preamble(13), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v13 preamble", [][]byte{preamble(13), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v13 preamble", [][]byte{preamble(13), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v13 preamble", [][]byte{preamble(13), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v13 preamble", [][]byte{preamble(13), rawHello(5)}, serve.ErrVersionMismatch},
		{"v6 hello inside a v13 preamble", [][]byte{preamble(13), rawHello(6)}, serve.ErrVersionMismatch},
		{"v7 hello inside a v13 preamble", [][]byte{preamble(13), rawHello(7)}, serve.ErrVersionMismatch},
		{"v8 hello inside a v13 preamble", [][]byte{preamble(13), rawHello(8)}, serve.ErrVersionMismatch},
		{"v9 hello inside a v13 preamble", [][]byte{preamble(13), rawHello(9)}, serve.ErrVersionMismatch},
		{"v10 hello inside a v13 preamble", [][]byte{preamble(13), rawHello(10)}, serve.ErrVersionMismatch},
		{"v11 hello inside a v13 preamble", [][]byte{preamble(13), rawHello(11)}, serve.ErrVersionMismatch},
		{"v12 hello inside a v13 preamble", [][]byte{preamble(13), rawHello(12)}, serve.ErrVersionMismatch},
		{"garbage opcode in a v12 preamble", [][]byte{preamble(12), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v12 preamble", [][]byte{preamble(12), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v12 preamble", [][]byte{preamble(12), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v12 preamble", [][]byte{preamble(12), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v12 preamble", [][]byte{preamble(12), rawHello(5)}, serve.ErrVersionMismatch},
		{"v6 hello inside a v12 preamble", [][]byte{preamble(12), rawHello(6)}, serve.ErrVersionMismatch},
		{"v7 hello inside a v12 preamble", [][]byte{preamble(12), rawHello(7)}, serve.ErrVersionMismatch},
		{"v8 hello inside a v12 preamble", [][]byte{preamble(12), rawHello(8)}, serve.ErrVersionMismatch},
		{"v9 hello inside a v12 preamble", [][]byte{preamble(12), rawHello(9)}, serve.ErrVersionMismatch},
		{"v10 hello inside a v12 preamble", [][]byte{preamble(12), rawHello(10)}, serve.ErrVersionMismatch},
		{"v11 hello inside a v12 preamble", [][]byte{preamble(12), rawHello(11)}, serve.ErrVersionMismatch},
		{"garbage opcode in a v11 preamble", [][]byte{preamble(11), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v11 preamble", [][]byte{preamble(11), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v11 preamble", [][]byte{preamble(11), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v11 preamble", [][]byte{preamble(11), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v11 preamble", [][]byte{preamble(11), rawHello(5)}, serve.ErrVersionMismatch},
		{"v6 hello inside a v11 preamble", [][]byte{preamble(11), rawHello(6)}, serve.ErrVersionMismatch},
		{"v7 hello inside a v11 preamble", [][]byte{preamble(11), rawHello(7)}, serve.ErrVersionMismatch},
		{"v8 hello inside a v11 preamble", [][]byte{preamble(11), rawHello(8)}, serve.ErrVersionMismatch},
		{"v9 hello inside a v11 preamble", [][]byte{preamble(11), rawHello(9)}, serve.ErrVersionMismatch},
		{"v10 hello inside a v11 preamble", [][]byte{preamble(11), rawHello(10)}, serve.ErrVersionMismatch},
		{"garbage opcode in a v10 preamble", [][]byte{preamble(10), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v10 preamble", [][]byte{preamble(10), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v10 preamble", [][]byte{preamble(10), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v10 preamble", [][]byte{preamble(10), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v10 preamble", [][]byte{preamble(10), rawHello(5)}, serve.ErrVersionMismatch},
		{"v6 hello inside a v10 preamble", [][]byte{preamble(10), rawHello(6)}, serve.ErrVersionMismatch},
		{"v7 hello inside a v10 preamble", [][]byte{preamble(10), rawHello(7)}, serve.ErrVersionMismatch},
		{"v8 hello inside a v10 preamble", [][]byte{preamble(10), rawHello(8)}, serve.ErrVersionMismatch},
		{"v9 hello inside a v10 preamble", [][]byte{preamble(10), rawHello(9)}, serve.ErrVersionMismatch},
		{"garbage opcode in a v9 preamble", [][]byte{preamble(9), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v9 preamble", [][]byte{preamble(9), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v9 preamble", [][]byte{preamble(9), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v9 preamble", [][]byte{preamble(9), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v9 preamble", [][]byte{preamble(9), rawHello(5)}, serve.ErrVersionMismatch},
		{"v6 hello inside a v9 preamble", [][]byte{preamble(9), rawHello(6)}, serve.ErrVersionMismatch},
		{"v7 hello inside a v9 preamble", [][]byte{preamble(9), rawHello(7)}, serve.ErrVersionMismatch},
		{"v8 hello inside a v9 preamble", [][]byte{preamble(9), rawHello(8)}, serve.ErrVersionMismatch},
		{"garbage opcode in a v8 preamble", [][]byte{preamble(8), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v8 preamble", [][]byte{preamble(8), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v8 preamble", [][]byte{preamble(8), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v8 preamble", [][]byte{preamble(8), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v8 preamble", [][]byte{preamble(8), rawHello(5)}, serve.ErrVersionMismatch},
		{"v6 hello inside a v8 preamble", [][]byte{preamble(8), rawHello(6)}, serve.ErrVersionMismatch},
		{"v7 hello inside a v8 preamble", [][]byte{preamble(8), rawHello(7)}, serve.ErrVersionMismatch},
		{"garbage opcode in a v7 preamble", [][]byte{preamble(7), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v7 preamble", [][]byte{preamble(7), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v7 preamble", [][]byte{preamble(7), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v7 preamble", [][]byte{preamble(7), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v7 preamble", [][]byte{preamble(7), rawHello(5)}, serve.ErrVersionMismatch},
		{"v6 hello inside a v7 preamble", [][]byte{preamble(7), rawHello(6)}, serve.ErrVersionMismatch},
		{"garbage opcode in a v6 preamble", [][]byte{preamble(6), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v6 preamble", [][]byte{preamble(6), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v6 preamble", [][]byte{preamble(6), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v6 preamble", [][]byte{preamble(6), rawHello(4)}, serve.ErrVersionMismatch},
		{"v5 hello inside a v6 preamble", [][]byte{preamble(6), rawHello(5)}, serve.ErrVersionMismatch},
		{"garbage opcode in a v5 preamble", [][]byte{preamble(5), {wireTagCtrl, 0xEE, 'j', 'u', 'n', 'k'}}, serve.ErrVersionMismatch},
		{"garbage after a v5 preamble", [][]byte{preamble(5), {0x5A}}, serve.ErrVersionMismatch},
		{"v3 hello inside a v5 preamble", [][]byte{preamble(5), rawHello(3)}, serve.ErrVersionMismatch},
		{"v4 hello inside a v5 preamble", [][]byte{preamble(5), rawHello(4)}, serve.ErrVersionMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var codes [2]string
			for i, ln := range []*transport.PipeListener{direct, routed} {
				conn, err := ln.Dial()
				if err != nil {
					t.Fatal(err)
				}
				codes[i] = rejectCode(t, conn, tc.frames)
			}
			if codes[0] != codes[1] || !errors.Is(&serve.HandshakeError{Code: codes[0]}, tc.want) {
				t.Fatalf("rejected with %q direct and %q routed, want one code matching %v", codes[0], codes[1], tc.want)
			}
		})
	}
}

// TestRouterCloseJoinsGoroutines: Close cuts live proxied sessions loose,
// closes its ServePipe fronts, and returns only after every router
// goroutine has exited — a second Dial on the front fails instead of
// leaking a pending handshake.
func TestRouterCloseJoinsGoroutines(t *testing.T) {
	model := testModel(t, 52)
	r := NewRouter(Config{})
	if _, err := r.AddEngine(newEngine(t, model)); err != nil {
		t.Fatal(err)
	}
	front := r.ServePipe()

	conn, err := front.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Park the connection mid-handshake: preamble sent, hello never sent,
	// so the router's handler goroutine is blocked in the peek.
	if err := transport.SendPreamble(conn, transport.Preamble{Version: wireVersion}); err != nil {
		t.Fatal(err)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := front.Dial(); err == nil {
		t.Fatal("front listener still accepting after Close")
	}
}
