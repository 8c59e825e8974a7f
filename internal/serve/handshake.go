package serve

import (
	"fmt"

	"privinf/internal/delphi"
	"privinf/internal/obs"
	"privinf/internal/transport"
)

// readHello reads and validates a connection's opening: an optional
// transport preamble frame, then the hello control frame. It is the one
// place the opening is parsed — a direct engine connection and a fleet
// router's peek both come through here, so the same bad opening gets the
// same answer on either path. An opening that cannot be parsed (an
// undecodable preamble, a frame that is not a hello, a hello whose JSON
// does not decode) is answered on conn with the typed bad_hello rejection;
// a well-formed preamble or hello at another wire version with the typed
// version rejection. Either way the error is returned and the caller just
// drops the connection. frames are the opening's raw frames in arrival
// order, copied (a received frame aliases transport-owned memory), for a
// front tier to replay. Rejections are counted on reg, the caller's.
func readHello(conn *transport.Conn, reg *obs.Registry) (hello helloMsg, frames [][]byte, err error) {
	f, err := conn.Recv()
	if err != nil {
		return hello, nil, err
	}
	if transport.IsPreamble(f) {
		pre, err := transport.DecodePreamble(f)
		if err != nil {
			return hello, nil, rejectOpening(conn, reg, rejectBadHello, "serve: malformed preamble")
		}
		if pre.Version != wireVersion {
			return hello, nil, rejectOpening(conn, reg, rejectVersion, versionText(int(pre.Version)))
		}
		frames = append(frames, append([]byte(nil), f...))
		if f, err = conn.Recv(); err != nil {
			return hello, nil, err
		}
	}
	op, body, err := parseCtrl(f)
	if err != nil || op != opHello || unmarshalJSON(body, &hello) != nil {
		return hello, nil, rejectOpening(conn, reg, rejectBadHello, "serve: malformed hello")
	}
	if hello.Version != wireVersion {
		return hello, nil, rejectOpening(conn, reg, rejectVersion, versionText(hello.Version))
	}
	return hello, append(frames, append([]byte(nil), f...)), nil
}

func versionText(client int) string {
	return fmt.Sprintf("serve: client speaks wire version %d, server speaks %d", client, wireVersion)
}

// rejectOpening answers a bad opening with a typed rejection and returns
// the error the client will see.
func rejectOpening(conn transport.MsgConn, reg *obs.Registry, code, message string) error {
	sendReject(conn, reg, code, message)
	return &HandshakeError{Code: code, Message: message}
}

// handshake runs one accepted connection from its opening to a session
// ready for the session loop: hello, ticket settle, admission, artifact
// resolve, welcome, delphi setup. It returns nil when the connection was
// answered with a rejection or an error, or died; the caller drops it.
func (e *Engine) handshake(conn *transport.Conn, addr string) *session {
	// The handshake happens on the raw connection, before the demultiplexer.
	hello, _, err := readHello(conn, e.met.reg)
	if err != nil {
		return nil
	}
	if e.draining.Load() {
		sendReject(conn, e.met.reg, rejectDraining, "serve: engine is draining, not accepting new sessions")
		return nil
	}
	name := hello.Model
	if name == "" {
		name = e.defaultModel
	}
	if name == "" {
		sendReject(conn, e.met.reg, rejectUnknownModel, "serve: hello named no model and the engine has no default model")
		return nil
	}
	// The name is peer-controlled and labels the ticket counters, so it is
	// validated before the ticket cache sees it: an unknown model mints no
	// series and reserves no ticket.
	if !e.reg.Has(name) {
		sendReject(conn, e.met.reg, rejectUnknownModel, fmt.Sprintf("%v: %q", ErrUnknownModel, name))
		return nil
	}
	// Settle the session preamble: a presented ticket either resumes OT
	// setup from cached seed material or is rejected with a typed code and
	// the session falls back to the full base-OT path on this same
	// connection. Full handshakes get a fresh ticket reserved here (it
	// rides in the welcome) and published once setup produces its state.
	var (
		resume       *delphi.OTResume
		resumeReject string
		newTicket    []byte
		serverNonce  []byte
	)
	if len(hello.Ticket) > 0 {
		switch {
		case e.tickets == nil:
			resumeReject = resumeDisabled
		case len(hello.Nonce) == 0:
			resumeReject = resumeBadNonce
		default:
			resume, resumeReject = e.tickets.redeem(hello.Ticket, name)
		}
	}
	if resume != nil {
		serverNonce = randomID(e.entropy)
	} else if e.tickets != nil {
		newTicket = e.tickets.reserve(name)
		defer e.tickets.settle(newTicket)
	}
	// setupTier is how the session is established; the resume-tier counter
	// refines full into the typed rejection that fell back to it.
	setupTier, tier := tierFull, tierFull
	switch {
	case resume != nil:
		setupTier, tier = tierResumed, tierResumed
	case resumeReject != "":
		tier = resumeReject
	}
	e.met.resume.With(tier).Inc()
	// Full setups (artifact resolve + base OTs + HE keygen) are the
	// engine's admission-controlled work: at most SetupWorkers run at
	// once, excess cold connects queue here. Resumed sessions skip the
	// bound — seed expansion costs ~nothing, so reconnect latency stays
	// flat even under a cold-connect storm.
	if resume == nil && e.setupSem != nil {
		select {
		case e.setupSem <- struct{}{}:
		case <-e.done:
			return nil
		}
		defer func() { <-e.setupSem }()
	}
	// Resolving the artifact may build it (a registry miss); that cost is
	// paid here, on this connection's goroutine, so other sessions keep
	// serving while a cold model encodes. The name is registered (checked
	// above, and registrations are never removed), so an error here is the
	// engine's own.
	artifact, err := e.reg.Get(name)
	if err != nil {
		e.met.handshakes.With(outcomeEngineErr).Inc()
		sendCtrl(conn, opErr, []byte(err.Error()))
		return nil
	}
	welcome := marshalJSON(welcomeMsg{
		Version:      wireVersion,
		Variant:      int(e.cfg.Variant),
		RingN:        artifact.Params().N,
		Model:        name,
		Meta:         artifact.Meta(),
		Resumed:      resume != nil,
		ResumeReject: resumeReject,
		Ticket:       newTicket,
		Nonce:        serverNonce,
	})
	if err := sendCtrl(conn, opWelcome, welcome); err != nil {
		return nil
	}

	if remote := conn.RemoteAddr(); remote != "" {
		addr = remote
	}
	s := &session{
		addr:    addr,
		model:   name,
		resumed: resume != nil,
		eng:     e,
		m:       newMux(conn),

		offlineHE:     e.met.offlineHE.With(name),
		offlineGarble: e.met.offlineGarble.With(name),
		offlineOT:     e.met.offlineOT.With(name),
		offline:       e.met.offline.With(name),
		online:        e.met.online.With(name),
	}
	dcfg := delphi.Config{
		Variant:     e.cfg.Variant,
		HEParams:    artifact.Params(),
		LPHEWorkers: e.cfg.LPHEWorkers,
	}
	setupSpan := obs.StartSpan(e.met.setup.With(setupTier))
	s.srv, err = delphi.NewServerShared(dataConn{s.m}, dcfg, artifact, e.entropy)
	switch {
	case err != nil:
	case resume != nil:
		// Both halves contribute to the per-session nonce, so neither party
		// can force a stream replay on the other. The client sends its
		// public key here, as on a full handshake: the ticket holds OT
		// seeds only.
		err = s.srv.SetupResumed(resume, joinNonce(hello.Nonce, serverNonce))
	default:
		err = s.srv.Setup()
		if err == nil && newTicket != nil {
			e.tickets.insert(newTicket, s.srv.OTResume())
		}
	}
	if err != nil {
		e.met.handshakes.With(outcomeSetupError).Inc()
		s.fail(err)
		return nil
	}
	setupSpan.End()
	return s
}

// Front-tier handshake support: a fleet router terminates nothing — it
// peeks the client's opening frames to learn where the session wants to go
// (model name, resumption ticket), replays them verbatim to the backend it
// picks, forwards the backend's answer, and then splices frames blindly.
// These helpers keep the wire format knowledge in this package while the
// routing policy lives in internal/fleet.

// ClientHello is a peeked client handshake opening: the routable fields a
// front tier keys on, plus the raw frames needed to replay the opening
// verbatim to a backend.
type ClientHello struct {
	// Model is the registry name the client requests; empty means the
	// backend's default model.
	Model string
	// Ticket is the OT resumption ticket the client presents, nil on cold
	// connects. A router routes ticket-first: the ticket only resumes on
	// the replica whose cache holds it.
	Ticket []byte

	frames [][]byte // preamble + hello, in arrival order
}

// PeekClientHello reads and validates a connection's opening frames (see
// readHello). Malformed openings and wire version mismatches are answered
// on conn with the same typed rejection an engine sends (counted as a
// handshake outcome on reg, the front tier's registry), and returned as an
// error; the caller should just drop the connection.
func PeekClientHello(conn *transport.Conn, reg *obs.Registry) (*ClientHello, error) {
	hello, frames, err := readHello(conn, reg)
	if err != nil {
		return nil, err
	}
	return &ClientHello{Model: hello.Model, Ticket: hello.Ticket, frames: frames}, nil
}

// Replay writes the captured opening frames to a backend connection, so
// the backend sees exactly the handshake the client sent.
func (h *ClientHello) Replay(conn transport.MsgConn) error {
	for _, f := range h.frames {
		if err := conn.Send(f); err != nil {
			return err
		}
	}
	return nil
}

// WelcomeInfo is a peeked backend handshake answer: the raw frame to
// forward to the client, plus the fields a front tier records.
type WelcomeInfo struct {
	// Frame is the backend's answer verbatim (welcome, reject or error);
	// forward it to the client unmodified.
	Frame []byte
	// Welcome reports whether the answer accepted the session.
	Welcome bool
	// Ticket is the fresh resumption ticket a full handshake issued (nil
	// on resumed or rejected sessions) — the router's sticky-route key for
	// the client's next connect.
	Ticket []byte
	// Resumed reports whether the backend accepted the hello's ticket.
	Resumed bool
}

// PeekWelcome reads the backend's handshake answer. Any well-formed answer
// (acceptance or typed rejection) returns nil error — routing worked, the
// outcome belongs to the client; a transport failure (backend died
// mid-handshake) returns the error so the router can retry elsewhere.
func PeekWelcome(conn *transport.Conn) (*WelcomeInfo, error) {
	op, body, err := recvCtrl(conn)
	if err != nil {
		return nil, err
	}
	w := &WelcomeInfo{Frame: ctrlFrame(op, body)}
	if op != opWelcome {
		return w, nil
	}
	var msg welcomeMsg
	if err := unmarshalJSON(body, &msg); err != nil {
		return nil, err
	}
	w.Welcome = true
	w.Ticket = msg.Ticket
	w.Resumed = msg.Resumed
	return w, nil
}

// RejectNoBackend answers a peeked client hello with the typed no_backend
// rejection (clients match it with errors.Is(err, ErrNoBackend)) — the
// front tier's answer when no live replica can take the session, counted
// as a handshake outcome on reg.
func RejectNoBackend(conn transport.MsgConn, reg *obs.Registry, message string) error {
	return sendReject(conn, reg, rejectNoBackend, message)
}
