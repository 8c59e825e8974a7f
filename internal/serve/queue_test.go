package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/delphi"
	"privinf/internal/transport"
)

// rawSession completes a session handshake on a fresh pipe connection with
// a bare delphi client and no Client loop, so nothing answers the session's
// directives or data phases after setup. The returned connection carries
// whatever control frames the test sends.
func rawSession(t *testing.T, ln *transport.PipeListener) *transport.Conn {
	t.Helper()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	m := newMux(conn)
	t.Cleanup(func() { m.close(nil) })
	err = transport.SendPreamble(conn, transport.Preamble{Version: wireVersion})
	if err == nil {
		err = sendCtrl(conn, opHello, marshalJSON(helloMsg{Version: wireVersion}))
	}
	if err != nil {
		t.Fatal(err)
	}
	cm, err := m.ctrl.pop()
	if err != nil || cm.op != opWelcome {
		t.Fatalf("handshake answer: opcode %d, %v", cm.op, err)
	}
	var w welcomeMsg
	if err := unmarshalJSON(cm.body, &w); err != nil {
		t.Fatal(err)
	}
	params, err := bfv.NewParams(w.RingN, w.Meta.P)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := delphi.NewClient(dataConn{m}, delphi.Config{Variant: delphi.Variant(w.Variant), HEParams: params}, w.Meta, nil)
	if err == nil {
		err = cli.Setup()
	}
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func queueDepth(eng *Engine) int {
	n := 0
	for _, ss := range eng.Stats().Sessions {
		n += ss.QueueDepth
	}
	return n
}

// TestQueueDepthCountsQueuedRequests: QueueDepth is read from the session's
// control queue, so every inference request a client has sent counts, not
// only the one being served and the next. The peer never answers the first
// request's offline phase, so all six stay pending.
func TestQueueDepthCountsQueuedRequests(t *testing.T) {
	eng, ln := pipeEngine(t, testConfig(t, testModel(t, 93)))
	conn := rawSession(t, ln)
	for i := 0; i < 6; i++ {
		if err := sendCtrl(conn, opInferReq, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "QueueDepth 6", func() bool { return queueDepth(eng) == 6 })
	for _, ms := range eng.Stats().Models {
		if ms.QueueDepth != 6 {
			t.Errorf("model %q QueueDepth %d, want 6", ms.Name, ms.QueueDepth)
		}
	}
}

// TestQueueDepthZeroAfterInfer: a request stops counting before its result
// leaves the server, so the moment Infer returns the engine reports an
// empty queue, with no settling time, background refills included.
func TestQueueDepthZeroAfterInfer(t *testing.T) {
	model := testModel(t, 94)
	cfg := testConfig(t, model)
	cfg.BufferPerSession, cfg.StorageBudget = 2, -1
	eng, ln := pipeEngine(t, cfg)
	c, err := dialPipe(ln)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		if _, _, _, err := c.Infer(testInput(model, i)); err != nil {
			t.Fatal(err)
		}
		if n := queueDepth(eng); n != 0 {
			t.Fatalf("QueueDepth %d right after inference %d returned, want 0", n, i)
		}
	}
}

// TestClientConcurrentCallsKeepOrder: goroutines sharing one client mix
// Infer and Precompute calls. Requests must leave in the order their calls
// joined the FIFO, or an answer would meet a head call of the other kind.
func TestClientConcurrentCallsKeepOrder(t *testing.T) {
	model := testModel(t, 96)
	_, ln := pipeEngine(t, testConfig(t, model))
	c, err := dialPipe(ln)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, rounds = 4, 4
	errs := make(chan error, callers)
	for ci := 0; ci < callers; ci++ {
		go func(ci int) {
			var err error
			for k := 0; k < rounds && err == nil; k++ {
				if (ci+k)%2 == 0 {
					_, _, err = c.Precompute()
				} else {
					_, err = inferExact(c, model, ci*rounds+k)
				}
			}
			errs <- err
		}(ci)
	}
	for ci := 0; ci < callers; ci++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestClientAnswerForAnotherCallIsBadFrame: the server answers requests in
// order, so a pre-compute ack while an inference heads the client's FIFO is
// a protocol violation, reported as ErrBadFrame.
func TestClientAnswerForAnotherCallIsBadFrame(t *testing.T) {
	cli, srv := transport.Pipe()
	defer srv.Close()
	c := &Client{
		m:        newMux(cli),
		meta:     delphi.ModelMeta{Dims: []delphi.LayerDim{{In: 1, Out: 1}}},
		loopDone: make(chan struct{}),
	}
	go c.loop()
	defer c.Close()
	fake := make(chan error, 1)
	go func() {
		op, _, err := recvCtrl(srv)
		if err == nil && op != opInferReq {
			err = fmt.Errorf("fake server got opcode %d, want an infer request", op)
		}
		if err == nil {
			err = sendCtrl(srv, opPrecomputeAck, marshalJSON(delphi.OfflineReport{}))
		}
		fake <- err
	}()
	if _, _, _, err := c.Infer([]uint64{0}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Infer error = %v, want ErrBadFrame", err)
	}
	if err := <-fake; err != nil {
		t.Fatal(err)
	}
}

// TestClientFailsCallPastGoInfer: a connection that dies after the server's
// opGoInfer but before its opInferAck still answers the call, with an
// error, because the call stays in the FIFO until its last directive.
func TestClientFailsCallPastGoInfer(t *testing.T) {
	cli, srv := transport.Pipe()
	c := &Client{m: newMux(cli), loopDone: make(chan struct{})}
	w := &call{next: opInferAck, done: make(chan struct{})} // its online phase ran
	c.calls = []*call{w}
	go c.loop()
	srv.Close()
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		t.Fatal("call still pending after the connection died")
	}
	if w.err == nil {
		t.Fatal("call answered without an error")
	}
	<-c.loopDone
}
