package serve

import (
	"errors"
	"strings"
	"testing"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/delphi"
	"privinf/internal/field"
	"privinf/internal/transport"
)

// TestMuxBadFrameTyped: a frame with an unknown tag byte and a control
// frame too short to carry an opcode both tear the mux down with an error
// matching ErrBadFrame — the typed form callers branch on.
func TestMuxBadFrameTyped(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		{"unknown tag", []byte{0x5A, 1, 2, 3}},
		{"opcodeless ctrl", []byte{tagCtrl}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := transport.Pipe()
			defer cli.Close()
			m := newMux(srv)
			defer m.close(nil)

			if err := cli.Send(tc.frame); err != nil {
				t.Fatal(err)
			}
			if _, err := m.ctrl.pop(); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("ctrl pop error = %v, want ErrBadFrame", err)
			}
			if _, err := m.data.pop(); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("data pop error = %v, want ErrBadFrame", err)
			}
		})
	}
}

// TestGarbageOpcodeInSession: an unknown client opcode injected into an
// established session makes the engine answer with opErr carrying the
// ErrBadFrame text and tear the session down — the client observes the
// server's typed complaint, not a hang or a silently eaten frame.
func TestGarbageOpcodeInSession(t *testing.T) {
	eng, ln := pipeEngine(t, testConfig(t, testModel(t, 92)))

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := sendCtrl(c.m.conn, 0xEE, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "client to observe the server's opErr", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.err != nil
	})
	c.mu.Lock()
	got := c.err.Error()
	c.mu.Unlock()
	if !strings.Contains(got, "unexpected client opcode 238") {
		t.Fatalf("client failure %q does not carry the server's bad-frame complaint", got)
	}
	waitFor(t, 5*time.Second, "engine to retire the failed session", func() bool {
		return eng.Stats().ActiveSessions == 0
	})
}

// TestConnectRejectsDegenerateWelcome: a server whose welcome describes a
// model no circuit or plan can be built for is speaking something else —
// Connect fails with ErrBadFrame instead of dividing by zero laying out a
// layer's matvec plan, or indexing the ReLU circuit's wires out of range.
func TestConnectRejectsDegenerateWelcome(t *testing.T) {
	for name, meta := range map[string]delphi.ModelMeta{
		"non-positive dims": {P: field.P20, Frac: 4, Dims: []delphi.LayerDim{{In: 0, Out: 0}}},
		"shift past the field width": {P: field.P20, Frac: 4,
			Dims: []delphi.LayerDim{{In: 4, Out: 3}, {In: 3, Out: 2}}, Shifts: []uint{1 << 63}},
	} {
		t.Run(name, func(t *testing.T) {
			cli, srv := transport.Pipe()
			defer cli.Close()
			defer srv.Close()
			w := welcomeMsg{Version: wireVersion, RingN: bfv.DefaultN, Meta: meta}
			// The pipe buffers, so the fake server can answer before it is asked.
			if err := sendCtrl(srv, opWelcome, marshalJSON(w)); err != nil {
				t.Fatal(err)
			}
			if _, err := Connect(cli, nil); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("Connect error = %v, want ErrBadFrame", err)
			}
		})
	}
}
