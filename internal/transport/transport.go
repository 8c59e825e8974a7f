// Package transport provides the framed, byte-accounted message channel the
// PI protocol parties communicate over. Frames are length-prefixed
// (4-byte little-endian). A Conn counts bytes in each direction so the
// protocol layer can report upload/download volumes — the quantities the
// paper's communication characterization (§4.1.3) and the WSA optimizer
// (§5.3) consume.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"privinf/internal/obs"
)

// frameOverhead is the per-message framing cost in bytes.
const frameOverhead = 4

// maxFrame bounds a single message; protocol messages are chunked well
// below this, so larger values indicate corruption.
const maxFrame = 1 << 30

// recvChunk is the most Recv allocates for a frame before any of its bytes
// have arrived. Every frame the protocol sends is below it (the largest, a
// demo-CNN garbled layer, is ≈ 1.5 MB), so they take one allocation.
const recvChunk = 4 << 20

// writevMin is the payload size at which a network send switches from
// copying into the reusable frame buffer to vectored I/O (net.Buffers):
// header and payload go out in one writev syscall with the payload read
// straight from the caller's buffer. Below it, the copy into the warm
// frame buffer is cheaper than iovec setup; large-ciphertext frames (tens
// of KiB to MiB) take the zero-copy path.
const writevMin = 1 << 10

// MsgConn is the message-channel interface the protocol layers (delphi, ot,
// serve) are written against: reliable ordered framed messages with
// per-direction byte accounting. *Conn is the canonical implementation; the
// serving engine layers session multiplexing on top of the same interface.
type MsgConn interface {
	Send(payload []byte) error
	Recv() ([]byte, error)
	SentBytes() uint64
	RecvBytes() uint64
}

// Conn is a reliable, ordered message channel with direction accounting.
type Conn struct {
	wmu     sync.Mutex
	rmu     sync.Mutex
	w       io.Writer
	r       io.Reader
	wbuf    []byte    // reusable frame assembly buffer, guarded by wmu
	vec     bool      // writer is a net.Conn: large sends may use writev
	iov     [2][]byte // reusable iovec backing for the writev path, guarded by wmu
	sent    atomic.Uint64
	recv    atomic.Uint64
	closers []io.Closer
	remote  string
}

// New wraps a bidirectional byte stream (e.g. a net.Conn) as a message
// channel. If rw is an io.Closer, Close closes it.
func New(rw io.ReadWriter) *Conn {
	c := &Conn{w: rw, r: rw}
	if cl, ok := rw.(io.Closer); ok {
		c.closers = []io.Closer{cl}
	}
	if nc, ok := rw.(net.Conn); ok {
		c.remote = nc.RemoteAddr().String()
		// net.Buffers on a net.Conn is a single writev (TCP implements
		// buffersWriter); on an arbitrary io.Writer it would degrade to
		// one Write per buffer, losing the single-syscall framing, so the
		// vectored path is gated on the writer being a net.Conn.
		c.vec = true
	}
	return c
}

// RemoteAddr identifies the peer: the remote socket address for network
// streams, "pipe" for in-process pipes, "" when unknown.
func (c *Conn) RemoteAddr() string { return c.remote }

// Send writes one framed message. Header and payload go out in a single
// Write so a TCP frame costs one syscall, not a header write followed by a
// payload write (which pays a second syscall and can emit a 4-byte segment).
func (c *Conn) Send(payload []byte) error {
	return c.send(payload, nil)
}

// SendTagged writes one framed message whose payload is tag || payload,
// without the caller having to allocate and copy a prefixed buffer. This is
// the hot path for multiplexed links that prepend a stream tag to every
// frame (internal/serve).
func (c *Conn) SendTagged(tag byte, payload []byte) error {
	return c.send(payload, []byte{tag})
}

// send frames prefix || payload under one lock and one write. Small frames
// are assembled in a buffer retained on the Conn, so steady-state sends do
// not allocate; large network frames go out via writev (net.Buffers) with
// the payload read directly from the caller's buffer — header and payload
// still leave in a single syscall, but the payload bytes are never copied
// into the frame buffer.
func (c *Conn) send(payload, prefix []byte) error {
	n := len(prefix) + len(payload)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	span := obs.StartSpan(obsWireWrite) // inside the lock: measures the write, not queueing on wmu
	if c.vec && len(payload) >= writevMin {
		// Assemble only header || prefix; the payload rides as the second
		// iovec, uncopied.
		if cap(c.wbuf) < frameOverhead+len(prefix) {
			c.wbuf = make([]byte, 0, frameOverhead+len(prefix))
		}
		h := c.wbuf[:frameOverhead]
		binary.LittleEndian.PutUint32(h, uint32(n))
		h = append(h, prefix...)
		c.wbuf = h[:0]
		c.iov[0], c.iov[1] = h, payload
		bufs := net.Buffers(c.iov[:])
		//lint:allow lockio wmu IS the write path: it serializes whole frames onto the stream, the send cannot move outside it
		_, err := bufs.WriteTo(c.w)
		c.iov[1] = nil // do not retain the caller's payload
		if err != nil {
			return fmt.Errorf("transport: send frame: %w", err)
		}
		span.End()
		c.sent.Add(uint64(n + frameOverhead))
		obsSentBytes.Add(uint64(n + frameOverhead))
		obsSentFrames.Inc()
		return nil
	}
	if cap(c.wbuf) < frameOverhead+n {
		c.wbuf = make([]byte, 0, frameOverhead+n)
	}
	f := c.wbuf[:frameOverhead]
	binary.LittleEndian.PutUint32(f, uint32(n))
	f = append(f, prefix...)
	f = append(f, payload...)
	c.wbuf = f[:0]
	//lint:allow lockio wmu IS the write path: it serializes whole frames onto the stream, the send cannot move outside it
	if _, err := c.w.Write(f); err != nil {
		return fmt.Errorf("transport: send frame: %w", err)
	}
	span.End()
	c.sent.Add(uint64(n + frameOverhead))
	obsSentBytes.Add(uint64(n + frameOverhead))
	obsSentFrames.Inc()
	return nil
}

// Recv reads one framed message.
func (c *Conn) Recv() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	span := obs.StartSpan(obsWireRead)
	var hdr [frameOverhead]byte
	//lint:allow lockio rmu IS the read path: it keeps header and payload reads of one frame contiguous on the stream
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("transport: recv header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	// The header is the peer's word only: allocate at most recvChunk up
	// front and double, capped at n, as the bytes actually arrive.
	payload := make([]byte, min(int(n), recvChunk))
	for off := 0; ; {
		//lint:allow lockio rmu IS the read path: it keeps header and payload reads of one frame contiguous on the stream
		k, err := io.ReadFull(c.r, payload[off:])
		if err != nil {
			return nil, fmt.Errorf("transport: recv payload: %w", err)
		}
		if off += k; off == int(n) {
			break
		}
		grown := make([]byte, min(2*off, int(n)))
		copy(grown, payload)
		payload = grown
	}
	span.End()
	c.recv.Add(uint64(n) + frameOverhead)
	obsRecvBytes.Add(uint64(n) + frameOverhead)
	obsRecvFrames.Inc()
	return payload, nil
}

// SentBytes returns the total bytes written, including framing.
func (c *Conn) SentBytes() uint64 { return c.sent.Load() }

// RecvBytes returns the total bytes read, including framing.
func (c *Conn) RecvBytes() uint64 { return c.recv.Load() }

// Close closes the underlying stream(s), if closable. A blocked Recv on the
// peer unblocks with an error.
func (c *Conn) Close() error {
	var first error
	for _, cl := range c.closers {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Pipe returns two connected in-process Conns with unbounded buffering,
// so protocol code can send several messages in one direction without the
// peer actively reading (unlike net.Pipe, which is synchronous and would
// deadlock batch sends).
func Pipe() (*Conn, *Conn) {
	ab := newQueueStream()
	ba := newQueueStream()
	a := &Conn{w: ab, r: ba, closers: []io.Closer{ab, ba}, remote: "pipe"}
	b := &Conn{w: ba, r: ab, closers: []io.Closer{ba, ab}, remote: "pipe"}
	return a, b
}

// queueStream is an unbounded FIFO byte stream: buf[head:] is unread. The
// room reads free is reused, so alternating writes and reads do not grow a
// copy of the backlog: a drained buffer restarts at its front, and a write
// that would grow the buffer first moves the backlog there.
type queueStream struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	head   int
	closed bool
}

func newQueueStream() *queueStream {
	q := &queueStream{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queueStream) Write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, io.ErrClosedPipe
	}
	if q.head > 0 && len(q.buf)+len(p) > cap(q.buf) {
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
	q.buf = append(q.buf, p...)
	q.cond.Broadcast()
	return len(p), nil
}

func (q *queueStream) Read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.buf) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.buf) {
		return 0, io.EOF
	}
	n := copy(p, q.buf[q.head:])
	if q.head += n; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return n, nil
}

func (q *queueStream) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
	return nil
}

// Listener accepts message-channel connections. Two implementations exist
// behind it: real TCP sockets (Listen) and in-process pipes (PipeListener),
// so a serving engine runs identically over loopback tests, in-process
// sessions, and the network.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (*Conn, error)
	// Addr returns the address clients dial, e.g. "127.0.0.1:9000" or
	// "pipe".
	Addr() string
	// Close stops the listener; a blocked Accept returns an error.
	Close() error
}

// Listen opens a TCP listener wrapping accepted sockets as Conns.
// addr is a standard host:port ("127.0.0.1:0" picks a free port).
func Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{ln: ln}, nil
}

// Dial connects to a TCP listener and wraps the socket as a Conn.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return New(c), nil
}

type tcpListener struct {
	ln net.Listener
}

func (t *tcpListener) Accept() (*Conn, error) {
	c, err := t.ln.Accept()
	if err != nil {
		return nil, err
	}
	return New(c), nil
}

func (t *tcpListener) Addr() string { return t.ln.Addr().String() }
func (t *tcpListener) Close() error { return t.ln.Close() }

// PipeListener is the in-process counterpart to Listen: each Dial creates a
// Pipe and hands the server half to Accept. It lets one engine serve
// in-process sessions and network sessions through the same interface.
type PipeListener struct {
	ch   chan *Conn
	done chan struct{}
	once sync.Once
}

// NewPipeListener returns an open in-process listener.
func NewPipeListener() *PipeListener {
	return &PipeListener{ch: make(chan *Conn), done: make(chan struct{})}
}

// Dial connects a new client Conn to the listener's Accept side.
func (p *PipeListener) Dial() (*Conn, error) {
	cli, srv := Pipe()
	select {
	case p.ch <- srv:
		return cli, nil
	case <-p.done:
		return nil, fmt.Errorf("transport: pipe listener closed")
	}
}

// Accept blocks for the next dialled connection.
func (p *PipeListener) Accept() (*Conn, error) {
	select {
	case c := <-p.ch:
		return c, nil
	case <-p.done:
		return nil, fmt.Errorf("transport: pipe listener closed")
	}
}

// Addr identifies the in-process listener.
func (p *PipeListener) Addr() string { return "pipe" }

// Close stops the listener; blocked Accept and Dial calls return errors.
func (p *PipeListener) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

// TCPPair connects two Conns over loopback TCP, for tests and examples
// that want real sockets rather than in-process pipes. It returns the two
// endpoints and a cleanup function.
func TCPPair() (client, server *Conn, cleanup func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	cl, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, nil, nil, err
	}
	acc := <-ch
	if acc.err != nil {
		cl.Close()
		ln.Close()
		return nil, nil, nil, acc.err
	}
	cleanup = func() {
		cl.Close()
		acc.conn.Close()
		ln.Close()
	}
	return New(cl), New(acc.conn), cleanup, nil
}
