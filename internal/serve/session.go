package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/obs"
)

// session is one connected client's server-side state.
type session struct {
	id    uint64
	addr  string
	model string // registry name resolved in the handshake
	// resumed marks a session whose OT setup was expanded from a cached
	// ticket instead of running base OTs.
	resumed bool
	eng     *Engine
	m       *mux
	srv     *delphi.Server
	// The model's phase histograms on the engine's registry, resolved once
	// at session creation so recording a phase costs no label lookup.
	offlineHE, offlineGarble, offlineOT, offline, online *obs.Histogram

	// Scheduler state, guarded by the scheduler's mutex.
	bufCount int
	granted  bool

	statMu sync.Mutex
	// serving marks an inference request popped from the control mailbox
	// whose ack has not been sent; with the requests still queued there it
	// makes QueueDepth.
	serving      bool
	precomputes  uint64
	inferences   uint64
	offlineTotal time.Duration
	onlineTotal  time.Duration
}

// run is the session loop. One queue, the control mailbox, holds the
// client's requests and the scheduler's refill grants in arrival order; the
// loop serves them one at a time until the mailbox closes (the client hung
// up, the connection died, or Engine.Close closed the mux) or one fails.
func (s *session) run() {
	for {
		cm, err := s.m.ctrl.pop()
		if err != nil {
			s.m.close(err)
			return
		}
		if err := s.handle(cm); err != nil {
			if errors.Is(err, errBye) {
				s.m.close(io.EOF)
			} else {
				s.fail(err)
			}
			return
		}
	}
}

var errBye = errors.New("serve: client said goodbye")

func (s *session) handle(cm ctrlMsg) error {
	if cm.grant {
		err := s.precompute(causeScheduled)
		s.eng.sched.grantDone(s)
		return err
	}
	switch cm.op {
	case opInferReq:
		return s.handleInfer()
	case opPrecomputeReq:
		return s.precompute(causeRequested)
	case opBye:
		return errBye
	default:
		return fmt.Errorf("%w: unexpected client opcode %d", ErrBadFrame, cm.op)
	}
}

// precompute directs the client into one offline phase and runs the server
// side of it.
func (s *session) precompute(cause byte) error {
	if err := sendCtrl(s.m.conn, opPrecompute, []byte{cause}); err != nil {
		return err
	}
	rep, err := s.srv.RunOffline()
	if err != nil {
		return err
	}
	s.statMu.Lock()
	s.precomputes++
	s.offlineTotal += rep.Duration
	s.statMu.Unlock()
	s.offlineHE.Record(rep.HEDuration)
	s.offlineGarble.Record(rep.GCDuration)
	s.offlineOT.Record(rep.OTDuration)
	s.offline.Record(rep.Duration)
	s.eng.sched.added(s)
	if cause == causeRequested {
		return sendCtrl(s.m.conn, opPrecomputeAck, marshalJSON(rep))
	}
	return nil
}

// handleInfer serves one inference request, paying an inline offline phase
// first when the buffer is empty (the paper's on-the-fly case).
func (s *session) handleInfer() error {
	s.statMu.Lock()
	s.serving = true
	s.statMu.Unlock()
	if s.srv.Buffered() == 0 {
		if err := s.precompute(causeInline); err != nil {
			return err
		}
	}
	if err := sendCtrl(s.m.conn, opGoInfer, nil); err != nil {
		return err
	}
	rep, err := s.srv.RunOnline()
	if err != nil {
		return err
	}
	s.statMu.Lock()
	s.serving = false // the request stops counting before its ack leaves
	s.inferences++
	s.onlineTotal += rep.Duration
	s.statMu.Unlock()
	s.online.Record(rep.Duration)
	s.eng.sched.consumed(s)
	return sendCtrl(s.m.conn, opInferAck, marshalJSON(rep))
}

// fail reports a fatal session error to the client and tears the session
// down.
func (s *session) fail(err error) {
	sendCtrl(s.m.conn, opErr, []byte(err.Error()))
	s.m.close(err)
}
