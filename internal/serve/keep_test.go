package serve

import (
	"testing"

	"privinf/internal/transport"
	"privinf/internal/transport/transporttest"
)

// TestDataConnNeverOverwritesEarlierFrames: the session mux's data stream,
// which delphi receives on inside the engine, hands out frames no later
// Recv writes into, as transport.Conn does.
func TestDataConnNeverOverwritesEarlierFrames(t *testing.T) {
	a, b := transport.Pipe()
	ma, mb := newMux(a), newMux(b)
	defer ma.close(nil)
	defer mb.close(nil)
	transporttest.FramesKept(t, dataConn{ma}, dataConn{mb})
}
