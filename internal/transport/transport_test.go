package transport

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	msg := []byte("hello private inference")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q want %q", got, msg)
	}
}

func TestPipeBatchSendsDoNotDeadlock(t *testing.T) {
	a, b := Pipe()
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.Send(bytes.Repeat([]byte{byte(i)}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1000 || got[0] != byte(i) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestByteAccounting(t *testing.T) {
	a, b := Pipe()
	// Counters only grow, so each frame is measured as a before/after delta.
	for _, n := range []int{123, 7} {
		sent, recv := a.SentBytes(), b.RecvBytes()
		if err := a.Send(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
		want := uint64(n + frameOverhead)
		if got := a.SentBytes() - sent; got != want {
			t.Errorf("%d-byte frame: SentBytes grew %d, want %d", n, got, want)
		}
		if got := b.RecvBytes() - recv; got != want {
			t.Errorf("%d-byte frame: RecvBytes grew %d, want %d", n, got, want)
		}
	}
}

func TestEmptyMessage(t *testing.T) {
	a, b := Pipe()
	if err := a.Send(nil); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("want empty message, got %d bytes", len(got))
	}
}

func TestBidirectional(t *testing.T) {
	a, b := Pipe()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := a.Send([]byte{1}); err != nil {
				t.Error(err)
				return
			}
			if _, err := a.Recv(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := b.Recv(); err != nil {
				t.Error(err)
				return
			}
			if err := b.Send([]byte{2}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestTCPPair(t *testing.T) {
	cl, sv, cleanup, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if err := cl.Send([]byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	got, err := sv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over tcp" {
		t.Fatalf("got %q", got)
	}
}

func TestListenDialRoundTrip(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type accepted struct {
		conn *Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()

	cli, err := Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	srv := acc.conn
	defer srv.Close()

	// Full-duplex round trip over the real socket.
	if err := cli.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Fatalf("server got %q, want %q", got, "ping")
	}
	if err := srv.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	got, err = cli.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "pong" {
		t.Fatalf("client got %q, want %q", got, "pong")
	}

	// Closing the peer unblocks a pending Recv with an error.
	srv.Close()
	if _, err := cli.Recv(); err == nil {
		t.Fatal("Recv after peer close should error")
	}
}

func TestPipeListener(t *testing.T) {
	ln := NewPipeListener()
	type accepted struct {
		conn *Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	cli, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	if err := cli.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.conn.Recv(); err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if _, err := ln.Accept(); err == nil {
		t.Fatal("Accept after Close should error")
	}
	if _, err := ln.Dial(); err == nil {
		t.Fatal("Dial after Close should error")
	}
}

func TestRecvRejectsOversizedFrame(t *testing.T) {
	q := newQueueStream()
	// Header claiming 2 GiB.
	if _, err := q.Write([]byte{0, 0, 0, 0x80}); err != nil {
		t.Fatal(err)
	}
	c := &Conn{w: q, r: q}
	if _, err := c.Recv(); err == nil {
		t.Fatal("oversized frame should be rejected")
	}
}

// TestRecvAllocatesOnlyWhatArrives: a peer that claims a 1 GiB frame and
// then closes costs an error and at most one recvChunk, not the gigabyte.
func TestRecvAllocatesOnlyWhatArrives(t *testing.T) {
	q := newQueueStream()
	if _, err := q.Write([]byte{0, 0, 0, 0x40}); err != nil { // 1 GiB, the limit
		t.Fatal(err)
	}
	q.Close()
	c := &Conn{w: q, r: q}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame cut short after its header was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Fatalf("Recv allocated %d bytes for a frame that never arrived", grew)
	}
}

// TestRecvGrowsFramesExactly: frames on both sides of recvChunk round-trip
// byte for byte.
func TestRecvGrowsFramesExactly(t *testing.T) {
	a, b := Pipe()
	for _, n := range []int{0, 1, recvChunk - 1, recvChunk, recvChunk + 1} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i*7 + i>>12)
		}
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("frame of %d bytes came back as %d different bytes", n, len(got))
		}
	}
}

// recordingNetConn is a minimal net.Conn whose Write records the identity
// (backing-array pointer) of every buffer it is handed, so tests can prove
// whether a payload reached the writer copied or uncopied. It is not a
// buffersWriter, so net.Buffers falls back to one Write per iovec — which
// is exactly what lets the test see each vector element as passed.
type recordingNetConn struct {
	writes [][]byte // the exact slices handed to Write
	ptrs   []*byte  // &b[0] of each non-empty write
	data   bytes.Buffer
}

func (r *recordingNetConn) Write(b []byte) (int, error) {
	r.writes = append(r.writes, b)
	if len(b) > 0 {
		r.ptrs = append(r.ptrs, &b[0])
	}
	r.data.Write(b)
	return len(b), nil
}

func (r *recordingNetConn) Read(b []byte) (int, error)       { return r.data.Read(b) }
func (r *recordingNetConn) Close() error                     { return nil }
func (r *recordingNetConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (r *recordingNetConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (r *recordingNetConn) SetDeadline(time.Time) error      { return nil }
func (r *recordingNetConn) SetReadDeadline(time.Time) error  { return nil }
func (r *recordingNetConn) SetWriteDeadline(time.Time) error { return nil }

// TestSendLargePayloadIsNotCopied pins the writev send path: a payload at
// or above writevMin on a network conn must reach the writer as the
// caller's own buffer (same backing array), not a copy into the frame
// buffer.
func TestSendLargePayloadIsNotCopied(t *testing.T) {
	rec := &recordingNetConn{}
	c := New(rec)
	if !c.vec {
		t.Fatal("net.Conn writer should enable the vectored send path")
	}

	payload := make([]byte, writevMin)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := c.Send(payload); err != nil {
		t.Fatal(err)
	}
	// net.Buffers over a non-buffersWriter degrades to one Write per
	// vector: header, then the payload slice itself.
	if len(rec.ptrs) != 2 {
		t.Fatalf("got %d writes, want 2 (header, payload)", len(rec.ptrs))
	}
	if rec.ptrs[1] != &payload[0] {
		t.Fatal("payload was re-copied before reaching the writer; writev path must pass it through")
	}

	// The frame on the wire must still decode identically.
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("writev frame decoded differently from its payload")
	}
	wantSent := uint64(len(payload) + frameOverhead)
	if c.SentBytes() != wantSent {
		t.Fatalf("SentBytes %d, want %d", c.SentBytes(), wantSent)
	}
}

// TestSendSmallPayloadSingleWrite pins the complementary property: below
// writevMin the frame still leaves in one Write (header and payload
// coalesced), the invariant that keeps small TCP frames to one segment.
func TestSendSmallPayloadSingleWrite(t *testing.T) {
	rec := &recordingNetConn{}
	c := New(rec)
	payload := []byte("small frame")
	if err := c.Send(payload); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 1 {
		t.Fatalf("small frame went out in %d writes, want 1", len(rec.writes))
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("small frame decoded differently from its payload")
	}
}

// TestLargeFramesOverTCP is the end-to-end check for the writev path over a
// real socket: ciphertext-sized frames (well above writevMin), tagged and
// untagged, arrive intact.
func TestLargeFramesOverTCP(t *testing.T) {
	cl, sv, cleanup, err := TCPPair()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	payload := make([]byte, 1<<18) // 256 KiB, ciphertext scale
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := cl.Send(payload); err != nil {
		t.Fatal(err)
	}
	if err := cl.SendTagged(0x7, payload); err != nil {
		t.Fatal(err)
	}
	got, err := sv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large frame corrupted over TCP")
	}
	got, err = sv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1+len(payload) || got[0] != 0x7 || !bytes.Equal(got[1:], payload) {
		t.Fatal("large tagged frame corrupted over TCP")
	}
}

// discardNetConn is a net.Conn that swallows writes, for benchmarking the
// send path without socket costs.
type discardNetConn struct{}

func (discardNetConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardNetConn) Read(b []byte) (int, error)       { return 0, io.EOF }
func (discardNetConn) Close() error                     { return nil }
func (discardNetConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (discardNetConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (discardNetConn) SetDeadline(time.Time) error      { return nil }
func (discardNetConn) SetReadDeadline(time.Time) error  { return nil }
func (discardNetConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkSendLargeFrame compares the copying send path against the
// vectored one at ciphertext scale (256 KiB), isolating the cost the
// writev path removes: one memcpy of the payload per frame.
func BenchmarkSendLargeFrame(b *testing.B) {
	payload := make([]byte, 1<<18)
	for _, bench := range []struct {
		name string
		vec  bool
	}{{"copy", false}, {"writev", true}} {
		b.Run(bench.name, func(b *testing.B) {
			c := New(discardNetConn{})
			c.vec = bench.vec
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPipeReusesDrainedBuffer: frames that alternate through a Pipe, one
// always in flight, allocate only what Recv hands out: the stream reuses
// the room its reads free instead of growing a copy of its backlog.
func TestPipeReusesDrainedBuffer(t *testing.T) {
	a, b := Pipe()
	frame := make([]byte, 1<<20)
	if err := a.Send(frame); err != nil { // the frame in flight
		t.Fatal(err)
	}
	round := func() {
		if err := a.Send(frame); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm: the stream grows to its working size
		round()
	}
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if perRound := (after.TotalAlloc - before.TotalAlloc) / rounds; perRound > 1<<20+64<<10 {
		t.Fatalf("a 1 MiB round through a Pipe allocates %d bytes, want Recv's 1 MiB and little else", perRound)
	}
}
