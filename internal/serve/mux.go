package serve

import (
	"fmt"
	"io"
	"sync"

	"privinf/internal/transport"
)

// mailbox is an unbounded FIFO queue with a blocking pop. Unbounded matters:
// the demultiplexer's reader goroutine must never block on a full queue, or
// a burst of control frames could stall the data frames a protocol phase is
// waiting on (and vice versa).
type mailbox[T any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []T
	err  error
}

func newMailbox[T any]() *mailbox[T] {
	m := &mailbox[T]{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox[T]) push(v T) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return
	}
	m.q = append(m.q, v)
	m.cond.Signal()
}

// pop blocks for the next value. Values queued before close drain first;
// after that pop returns the close error.
func (m *mailbox[T]) pop() (T, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.q) == 0 && m.err == nil {
		m.cond.Wait()
	}
	var zero T
	if len(m.q) == 0 {
		return zero, m.err
	}
	v := m.q[0]
	m.q = m.q[1:]
	return v, nil
}

// count reports how many queued values satisfy f.
func (m *mailbox[T]) count(f func(T) bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, v := range m.q {
		if f(v) {
			n++
		}
	}
	return n
}

func (m *mailbox[T]) close(err error) {
	if err == nil {
		err = io.EOF
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = err
	}
	m.cond.Broadcast()
}

// mux demultiplexes one session connection into its data and control
// streams. A single reader goroutine owns conn.Recv, so control requests
// arrive even while the session is idle, and data frames flow even while
// control handling is busy.
type mux struct {
	conn *transport.Conn
	data *mailbox[[]byte]
	ctrl *mailbox[ctrlMsg]
}

func newMux(conn *transport.Conn) *mux {
	m := &mux{conn: conn, data: newMailbox[[]byte](), ctrl: newMailbox[ctrlMsg]()}
	//lint:allow goroutineleak the reader exits when mux.close closes the conn and its Recv errors; the conn is the join point
	go m.read()
	return m
}

func (m *mux) read() {
	for {
		f, err := m.conn.Recv()
		if err == nil && (len(f) == 0 || (f[0] != tagData && f[0] != tagCtrl)) {
			err = fmt.Errorf("%w: %d bytes, tag %#x", ErrBadFrame, len(f), first(f))
		}
		if err == nil && f[0] == tagCtrl && len(f) < 2 {
			err = fmt.Errorf("%w: control frame without opcode", ErrBadFrame)
		}
		if err != nil {
			m.data.close(err)
			m.ctrl.close(err)
			return
		}
		switch f[0] {
		case tagData:
			m.data.push(f[1:])
		case tagCtrl:
			m.ctrl.push(ctrlMsg{op: f[1], body: f[2:]})
		}
	}
}

func (m *mux) close(err error) {
	m.data.close(err)
	m.ctrl.close(err)
	m.conn.Close()
}

// dataConn presents the mux's data stream as the transport.MsgConn the
// delphi protocol endpoints are written against. Byte counters report the
// whole connection (tags and control traffic included) — that is the
// session's true communication footprint.
type dataConn struct {
	m *mux
}

func (d dataConn) Send(p []byte) error {
	// The transport prepends the tag inside its own frame assembly, so a
	// DELPHI payload is not copied into a fresh tagged buffer per frame.
	return d.m.conn.SendTagged(tagData, p)
}

func (d dataConn) Recv() ([]byte, error) { return d.m.data.pop() }
func (d dataConn) SentBytes() uint64     { return d.m.conn.SentBytes() }
func (d dataConn) RecvBytes() uint64     { return d.m.conn.RecvBytes() }
