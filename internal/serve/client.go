package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"privinf/internal/bfv"
	"privinf/internal/delphi"
	"privinf/internal/transport"
)

// Client is a serving-engine client session: it dials an engine, learns the
// model's public metadata from the handshake, and then answers the server's
// phase directives — background buffer refills run without any caller
// involvement, and Infer/Precompute enqueue requests the server interleaves
// with them. Safe for concurrent use; calls are served FIFO.
type Client struct {
	m       *mux
	cli     *delphi.Client
	meta    delphi.ModelMeta
	model   string
	variant delphi.Variant
	// resumed / resumeReject are the handshake's typed resumption outcome:
	// whether this session's OT setup was expanded from a ticket, and the
	// welcome's reject code when a presented ticket was turned down.
	resumed      bool
	resumeReject string

	buffered atomic.Int64
	// lastOffline is the client's report of the latest offline phase, which
	// a requested pre-compute's ack answers with. The loop owns it.
	lastOffline delphi.OfflineReport

	// sendMu puts requests on the wire in the order their calls are queued.
	// It is held across the send, like the connection's own write lock the
	// frame waits on anyway; the loop never takes it.
	sendMu sync.Mutex
	mu     sync.Mutex
	err    error
	// calls is the FIFO of pending Infer and Precompute calls. The server
	// answers requests in the order they arrived, so every answer is for
	// the head.
	calls []*call

	loopDone  chan struct{}
	closeOnce sync.Once
}

// call is one pending Infer or Precompute. Until done is closed, every field
// but x and done belongs to the loop.
type call struct {
	next           byte // the server opcode that advances this call
	x, out         []uint64
	cliOn, srvOn   delphi.OnlineReport
	cliOff, srvOff delphi.OfflineReport
	err            error
	done           chan struct{}
}

// connectOptions is the resolved connect configuration an Option mutates.
type connectOptions struct {
	// Model names the registry entry to request; empty means the engine's
	// default model.
	Model string
	// Preamble, when non-nil, carries the client's reusable session state:
	// its resumption ticket rides in the hello (reconnects skip base OTs
	// and HE keygen when the engine accepts it), and the preamble is
	// updated in place with whatever this handshake produces.
	Preamble *Preamble
	// Entropy seeds the session's randomness; nil means crypto/rand.
	Entropy io.Reader
}

// Option configures a Dial or Connect call.
type Option func(*connectOptions)

// WithModel requests the named model from the engine's registry (empty
// means the engine's default model). An engine that does not know the name
// rejects the handshake with an error matching errors.Is(err,
// ErrUnknownModel).
func WithModel(name string) Option {
	return func(o *connectOptions) { o.Model = name }
}

// WithEntropy seeds the session's randomness from r; the default (and a
// nil r) is crypto/rand.
func WithEntropy(r io.Reader) Option {
	return func(o *connectOptions) { o.Entropy = r }
}

// WithPreamble attaches a client's reusable session-preamble state: its
// resumption ticket rides in the hello (reconnects skip base OTs and HE
// keygen when the engine accepts it), and the preamble is updated in place
// with whatever this handshake produces. A nil p is a plain cold connect.
func WithPreamble(p *Preamble) Option {
	return func(o *connectOptions) { o.Preamble = p }
}

// Dial connects to an engine over TCP and runs the session handshake. With
// no options it is served the engine's default model with crypto/rand
// entropy; compose WithModel, WithEntropy and WithPreamble to override.
func Dial(addr string, opts ...Option) (*Client, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	c, err := Connect(conn, opts...)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Connect runs the session handshake over an established connection (TCP
// via transport.Dial, or in-process via transport.PipeListener.Dial) and
// starts the session. With no options it is served the engine's default
// model with crypto/rand entropy; compose WithModel, WithEntropy and
// WithPreamble to override. Typed handshake rejections surface as
// *HandshakeError: match errors.Is(err, ErrUnknownModel) and
// errors.Is(err, ErrVersionMismatch). A rejected resumption ticket does
// not fail the connect — the session falls back to the full base-OT path;
// ResumeOutcome reports what happened.
func Connect(conn *transport.Conn, options ...Option) (*Client, error) {
	var opts connectOptions
	for _, opt := range options {
		if opt != nil {
			opt(&opts)
		}
	}
	var ticket []byte
	var state *delphi.OTResume
	if opts.Preamble != nil {
		ticket, state = opts.Preamble.ticketSnapshot()
	}
	if state != nil && !state.Resumable() {
		// A sender state from before wire v16 cannot resume: connect cold,
		// and the full handshake replaces it.
		ticket, state = nil, nil
	}
	// The client's injected entropy covers the resumption nonce too — the
	// nonce seeds the per-session OT stream derivation, so it is as secret
	// as the rest of the client's randomness.
	entropy := delphi.LockedEntropy(opts.Entropy)
	var nonce []byte
	if len(ticket) > 0 {
		nonce = randomID(entropy)
	}
	// The preamble frame and the hello pipeline: both go out before the
	// first read, so the preamble costs no extra round trip.
	if err := transport.SendPreamble(conn, transport.Preamble{Version: wireVersion}); err != nil {
		return nil, err
	}
	hello := helloMsg{Version: wireVersion, Model: opts.Model, Ticket: ticket, Nonce: nonce}
	if err := sendCtrl(conn, opHello, marshalJSON(hello)); err != nil {
		return nil, err
	}
	op, body, err := recvCtrl(conn)
	if err != nil {
		return nil, err
	}
	switch op {
	case opWelcome:
	case opReject:
		var rej rejectMsg
		if err := unmarshalJSON(body, &rej); err != nil {
			return nil, err
		}
		return nil, &HandshakeError{Code: rej.Code, Message: rej.Message}
	case opErr:
		return nil, fmt.Errorf("serve: server rejected session: %s", body)
	default:
		return nil, fmt.Errorf("%w: expected welcome, got opcode %d", ErrBadFrame, op)
	}
	var w welcomeMsg
	if err := unmarshalJSON(body, &w); err != nil {
		return nil, err
	}
	if w.Version != wireVersion {
		return nil, fmt.Errorf("serve: server speaks version %d, want %d", w.Version, wireVersion)
	}
	if err := w.Meta.Validate(); err != nil {
		return nil, fmt.Errorf("%w: welcome: %v", ErrBadFrame, err)
	}
	if w.Resumed && state == nil {
		return nil, fmt.Errorf("serve: server resumed a ticket this client holds no state for")
	}
	params, err := bfv.NewParams(w.RingN, w.Meta.P)
	if err != nil {
		return nil, err
	}
	// A resumed session reuses the preamble's key pair, so no keygen runs;
	// its public key is sent all the same, since the server keeps none past
	// a session. Any other session draws a fresh pair.
	keys, err := opts.Preamble.sessionKeys(params, entropy, w.Resumed)
	if err != nil {
		return nil, err
	}

	c := &Client{
		m:            newMux(conn),
		meta:         w.Meta,
		model:        w.Model,
		variant:      delphi.Variant(w.Variant),
		resumed:      w.Resumed,
		resumeReject: w.ResumeReject,
		loopDone:     make(chan struct{}),
	}
	var res *delphi.OTResume
	var sessionNonce []byte
	if w.Resumed {
		res, sessionNonce = state, joinNonce(nonce, w.Nonce)
	}
	c.cli, err = delphi.NewClient(dataConn{c.m}, delphi.Config{Variant: c.variant, HEParams: params}, w.Meta, entropy)
	if err == nil {
		err = c.cli.SetupKeys(keys, res, sessionNonce)
	}
	if err == nil && !w.Resumed {
		opts.Preamble.storeTicket(w.Ticket, c.cli.OTResume())
	}
	if err != nil {
		c.m.close(err)
		return nil, err
	}
	go c.loop()
	return c, nil
}

// Resumed reports whether this session's OT setup was expanded from a
// resumption ticket (no base OTs ran).
func (c *Client) Resumed() bool { return c.resumed }

// ResumeOutcome returns the handshake's typed resumption outcome: whether
// the session resumed, and the welcome's reject code ("unknown_ticket",
// "expired_ticket", "resume_disabled", ...) when a presented ticket was
// turned down. Both are zero when no ticket was presented.
func (c *Client) ResumeOutcome() (resumed bool, rejectCode string) {
	return c.resumed, c.resumeReject
}

// Meta returns the model's public metadata from the handshake.
func (c *Client) Meta() delphi.ModelMeta { return c.meta }

// Model returns the registry name of the model this session is served, as
// resolved by the engine (the engine's default-model name when the hello
// named none).
func (c *Client) Model() string { return c.model }

// Variant returns the protocol variant the engine serves.
func (c *Client) Variant() delphi.Variant { return c.variant }

// Buffered returns the session's current pre-compute buffer depth.
func (c *Client) Buffered() int { return int(c.buffered.Load()) }

// loop answers server directives in order. It owns the delphi client; all
// protocol phases run here, serialized.
func (c *Client) loop() {
	defer close(c.loopDone)
	for {
		cm, err := c.m.ctrl.pop()
		if err == nil {
			err = c.handle(cm)
		}
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// handle serves one server directive. A background opPrecompute answers no
// call; the other phase directives advance the call at the FIFO's head.
func (c *Client) handle(cm ctrlMsg) error {
	switch cm.op {
	case opPrecompute:
		rep, err := c.cli.RunOffline()
		if err != nil {
			return err
		}
		c.lastOffline = rep
		c.buffered.Add(1)
		return nil
	case opGoInfer, opInferAck, opPrecomputeAck:
		return c.advance(cm)
	case opErr:
		return fmt.Errorf("serve: server error: %s", cm.body)
	default:
		return fmt.Errorf("%w: unexpected server opcode %d", ErrBadFrame, cm.op)
	}
}

// advance moves the FIFO's head call one step, answering it on its last.
// The head must be waiting for exactly cm's opcode: an answer for a call of
// the other kind, or for no call, is ErrBadFrame.
func (c *Client) advance(cm ctrlMsg) error {
	var w *call
	c.mu.Lock()
	if len(c.calls) > 0 {
		w = c.calls[0]
	}
	c.mu.Unlock()
	if w == nil || w.next != cm.op {
		return fmt.Errorf("%w: server opcode %d answers no pending call", ErrBadFrame, cm.op)
	}
	var err error
	if cm.op == opGoInfer {
		if w.out, w.cliOn, err = c.cli.RunOnline(w.x); err == nil {
			c.buffered.Add(-1)
			w.next = opInferAck
		}
		return err
	}
	if cm.op == opInferAck {
		err = unmarshalJSON(cm.body, &w.srvOn)
	} else {
		w.cliOff = c.lastOffline
		err = unmarshalJSON(cm.body, &w.srvOff)
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.calls = c.calls[1:]
	c.mu.Unlock()
	close(w.done)
	return nil
}

// fail terminates the session, answering every pending call with err. Only
// the loop calls it, so no call is answered twice.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	calls := c.calls
	c.calls = nil
	c.mu.Unlock()
	for _, w := range calls {
		w.err = err
		close(w.done)
	}
	c.m.close(err)
}

// Infer runs one private inference, consuming a buffered pre-compute (the
// engine pays an inline offline phase first when the buffer is empty). It
// returns the output shares reconstructed — only this client learns them —
// plus both parties' online reports.
func (c *Client) Infer(x []uint64) ([]uint64, delphi.OnlineReport, delphi.OnlineReport, error) {
	if len(x) != c.meta.Dims[0].In {
		return nil, delphi.OnlineReport{}, delphi.OnlineReport{}, fmt.Errorf("serve: input length %d, want %d", len(x), c.meta.Dims[0].In)
	}
	w := c.do(opInferReq, &call{next: opGoInfer, x: append([]uint64(nil), x...)})
	return w.out, w.cliOn, w.srvOn, w.err
}

// Precompute explicitly buffers one pre-compute ahead of requests,
// regardless of the engine's background scheduler. It returns the client's
// and server's offline reports.
func (c *Client) Precompute() (client, server delphi.OfflineReport, err error) {
	w := c.do(opPrecomputeReq, &call{next: opPrecomputeAck})
	return w.cliOff, w.srvOff, w.err
}

// do queues w, sends its request and waits for the answer. The call is
// queued before its request leaves, so the loop always finds it, and
// sendMu keeps requests on the wire in queue order. A failed send closes
// the mux; the loop then fails every pending call, this one included.
func (c *Client) do(op byte, w *call) *call {
	w.done = make(chan struct{})
	c.sendMu.Lock()
	c.mu.Lock()
	failed := c.err
	if failed == nil {
		c.calls = append(c.calls, w)
	}
	c.mu.Unlock()
	if failed != nil {
		c.sendMu.Unlock()
		w.err = failed
		return w
	}
	if err := sendCtrl(c.m.conn, op, nil); err != nil {
		c.m.close(err)
	}
	c.sendMu.Unlock()
	<-w.done
	return w
}

// Close says goodbye and tears the session down. Pending calls fail.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		sendCtrl(c.m.conn, opBye, nil) // best effort
		c.m.close(errors.New("serve: client closed"))
		<-c.loopDone
	})
	return nil
}
