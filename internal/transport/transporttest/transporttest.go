// Package transporttest holds the checks every transport.MsgConn receive
// path must pass, for the tests of the packages that implement one.
package transporttest

import (
	"bytes"
	"testing"

	"privinf/internal/transport"
)

// FramesKept checks that a frame Recv returns is the caller's to keep: no
// later Recv on the same connection writes into it. It sends frames from a
// to b one at a time, of one size over and over and of growing sizes, and
// after each Recv every frame received so far must still hold what was
// sent. A receive path that reused its buffer would overwrite an earlier
// frame with a later one of the same size. The delphi evaluator's store of
// a garbled layer is the frame it received, which rests on this.
func FramesKept(t testing.TB, a, b transport.MsgConn) {
	t.Helper()
	sizes := []int{1000, 1000, 1000, 4 << 10, 1000, 1 << 20, 1 << 20, 0, 3}
	frame := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, sizes[i]) }
	var kept [][]byte
	for i := range sizes {
		// The send runs beside the Recv: a socket buffers less than the
		// largest frame.
		errc := make(chan error, 1)
		go func() { errc <- a.Send(frame(i)) }()
		got, err := b.Recv()
		if sendErr := <-errc; err == nil {
			err = sendErr
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		kept = append(kept, got)
		for j, f := range kept {
			if !bytes.Equal(f, frame(j)) {
				t.Fatalf("after %d frames, frame %d no longer holds what was sent", i+1, j)
			}
		}
	}
}
