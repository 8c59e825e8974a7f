package transport_test

import (
	"testing"

	"privinf/internal/transport"
	"privinf/internal/transport/transporttest"
)

// TestRecvNeverOverwritesEarlierFrames: a Conn's Recv hands out frames no
// later Recv writes into, over a Pipe and over TCP (docs/invariants.md,
// frameretain: the one frame the module keeps past its handler rests on
// this).
func TestRecvNeverOverwritesEarlierFrames(t *testing.T) {
	a, b := transport.Pipe()
	transporttest.FramesKept(t, a, b)
	cli, srv, cleanup, err := transport.TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	transporttest.FramesKept(t, cli, srv)
}
