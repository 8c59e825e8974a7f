package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
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

	refill chan struct{}

	// Scheduler state, guarded by the scheduler's mutex.
	bufCount int
	granted  bool

	// Metrics. queued counts inference requests accepted but not finished.
	queued atomic.Int64

	statMu       sync.Mutex
	precomputes  uint64
	inferences   uint64
	offlineTotal time.Duration
	onlineTotal  time.Duration
}

// startCtrlPump moves control messages from the mux onto a selectable
// channel, counting accepted inference requests in s.queued. sdone unblocks
// it when the session loop exits for any reason; a message the pump had
// already counted but could not deliver is un-counted on that path, so a
// torn-down session never reports a stale positive QueueDepth.
func (s *session) startCtrlPump(sdone <-chan struct{}) <-chan ctrlMsg {
	ctrlCh := make(chan ctrlMsg)
	go func() {
		defer close(ctrlCh)
		for {
			cm, err := s.m.ctrl.pop()
			if err != nil {
				return
			}
			if cm.op == opInferReq {
				s.queued.Add(1)
			}
			select {
			case ctrlCh <- cm:
			case <-sdone:
				if cm.op == opInferReq {
					s.queued.Add(-1)
				}
				return
			}
		}
	}()
	return ctrlCh
}

// run is the session loop: it serializes this session's protocol phases,
// interleaving scheduler refills with client requests.
func (s *session) run() {
	sdone := make(chan struct{})
	defer close(sdone)
	ctrlCh := s.startCtrlPump(sdone)

	for {
		select {
		case <-s.refill:
			err := s.precompute(causeScheduled)
			s.eng.sched.grantDone(s)
			if err != nil {
				s.fail(err)
				return
			}
		case cm, ok := <-ctrlCh:
			if !ok {
				s.m.close(io.EOF) // client hung up or connection died
				return
			}
			if err := s.handleCtrl(cm); err != nil {
				if errors.Is(err, errBye) {
					s.m.close(io.EOF)
				} else {
					s.fail(err)
				}
				return
			}
		case <-s.eng.done:
			s.m.close(errors.New("serve: engine closed"))
			return
		}
	}
}

var errBye = errors.New("serve: client said goodbye")

func (s *session) handleCtrl(cm ctrlMsg) error {
	switch cm.op {
	case opInferReq:
		err := s.handleInfer()
		s.queued.Add(-1)
		return err
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
