package serve

import (
	"encoding/json"
	"errors"
	"fmt"

	"privinf/internal/delphi"
	"privinf/internal/obs"
	"privinf/internal/transport"
)

// Wire format. Every frame on a session connection carries a 1-byte tag:
//
//	tagData | <delphi payload>
//	tagCtrl | <op> | <body>
//
// Data frames are the unmodified DELPHI protocol messages; control frames
// carry the serving engine's session protocol. The server owns phase
// sequencing: after the handshake, every offline/online phase on the data
// stream is announced by a server→client directive (opPrecompute,
// opGoInfer), so both ends always agree on what the next data frames mean.
// Client→server control frames (opInferReq, opPrecomputeReq, opBye) are
// requests, which the server answers strictly in arrival order, with its
// own background opPrecompute directives between them; they may interleave
// with data frames at any point because the demultiplexer routes the two
// tags to separate queues.
const (
	// wireVersion is the one wire version both ends must speak: a connection
	// opens with a transport.Preamble frame carrying it (gating the version
	// before any JSON is parsed) and the hello repeats it; any other value in
	// either place is rejected with rejectVersion. Under it, hellos may carry
	// an OT resumption ticket plus a client nonce, welcomes answer with the
	// typed resumption outcome, a fresh ticket and the server nonce. Every
	// welcome is followed by the client's HE public key, and only a full
	// handshake's then by the two flights of P-256 base-OT points. The OT
	// extension's s is the garbler's free-XOR offset for the life of its
	// base-OT state, so a label OT's rows are its labels and it sends only
	// the evaluator's u frame: either variant runs a ReLU layer's label OTs
	// as u from the evaluator, then the garbled record from the garbler, and
	// each pre-compute garbles under a hash key of its own. Server-Garbler's
	// b and r OTs send nothing more: the garbler pins those inputs to its
	// rows, which the client already holds as its labels. Client-Garbler's
	// a-label OTs are random OTs, leaving one d frame down and one z frame
	// (one 16-byte label an OT) up per ReLU layer online. A sender state
	// whose s has lsb 0 predates v16 and resumes nothing: a Client-Garbler
	// client connects without its ticket, and a Server-Garbler engine
	// refuses the ticket (resumeColourBit) and runs a full handshake. The
	// offline HE leg sends seeded secret-key uploads (seed ‖ c0)
	// up, one a chunk of the byte-minimal plan, and, down, responses
	// re-randomized under the client's public key, flooded at the read slots
	// and switched to 2^k with c0 at those slots only (k = 34 for N = 4096 and
	// P20). The public key crosses seeded, seed ‖ b, on every connect, and the
	// server keeps it for that session only: a resumption ticket holds OT seeds
	// and nothing else. A garbled ReLU layer is one frame, public seed ‖ units
	// × tables ‖ packed decode bits: the garbler ships no label of an input it
	// knows when it garbles (const-one, and b and r under Client-Garbler),
	// whose active labels the evaluator expands from the seed. Both ends derive
	// the ReLU circuit (130 AND gates for P20 at shift 4) and the matvec plans
	// from the model metadata. Durable state (tickets, preambles, artifacts)
	// holds seeds, keys and encoded weights, never group elements, ciphertexts,
	// precomputed OTs, or anything both ends derive from the model metadata,
	// and so carries across every bump. The history of earlier versions is in
	// CHANGES.md.
	wireVersion = 16

	tagData byte = 0x00
	tagCtrl byte = 0x01
)

// Control opcodes.
const (
	// Client → server.
	opHello         byte = iota + 1 // handshake open, body = helloMsg
	opInferReq                      // request one inference
	opPrecomputeReq                 // request one explicit pre-compute
	opBye                           // orderly goodbye

	// Server → client.
	opWelcome       // handshake reply, body = welcomeMsg
	opPrecompute    // run one offline phase now, body = [cause]
	opPrecomputeAck // a requested pre-compute finished, body = OfflineReport
	opGoInfer       // run one online phase now
	opInferAck      // the online phase finished, body = OnlineReport
	opErr           // fatal session error, body = message
	opReject        // typed handshake rejection, body = rejectMsg
)

// Causes for an opPrecompute directive.
const (
	causeScheduled byte = iota // background scheduler refill
	causeRequested             // explicit client opPrecomputeReq
	causeInline                // on-the-fly: an inference found an empty buffer
)

// ctrlMsg is one entry of a session end's control queue: a control frame
// from the peer or, on the server, a refill grant from the scheduler. Only
// scheduler.kick sets grant; mux.read never does, so no frame a peer sends
// can pose as a grant.
type ctrlMsg struct {
	op    byte
	body  []byte
	grant bool
}

// helloMsg opens the handshake. Model names the registry entry the client
// wants to be served; empty means the engine's default model. Ticket, when
// present, asks to resume OT setup from the server's cached seed material;
// Nonce is the client's half of the per-session resumption nonce and must
// accompany a ticket.
type helloMsg struct {
	Version int    `json:"version"`
	Model   string `json:"model,omitempty"`
	Ticket  []byte `json:"ticket,omitempty"`
	Nonce   []byte `json:"nonce,omitempty"`
}

// welcomeMsg answers it with everything the client needs to instantiate its
// protocol endpoint: the variant, HE ring degree, the resolved model name,
// and the public model metadata (weights never travel). The resumption
// fields settle the preamble before either party touches the OT layer:
// Resumed says whether the hello's ticket was accepted (both sides then
// expand cached seeds instead of running base OTs), ResumeReject carries
// the typed reason when it was not (the session falls back to the full
// base-OT path on the same connection), Ticket is a freshly issued
// resumption ticket for the client's next connect (full handshakes only),
// and Nonce is the server's half of the per-session nonce.
type welcomeMsg struct {
	Version      int              `json:"version"`
	Variant      int              `json:"variant"`
	RingN        int              `json:"ring_n"`
	Model        string           `json:"model"`
	Meta         delphi.ModelMeta `json:"meta"`
	Resumed      bool             `json:"resumed,omitempty"`
	ResumeReject string           `json:"resume_reject,omitempty"`
	Ticket       []byte           `json:"ticket,omitempty"`
	Nonce        []byte           `json:"nonce,omitempty"`
}

// Handshake rejection codes carried in rejectMsg.Code.
const (
	rejectVersion      = "version_mismatch"
	rejectUnknownModel = "unknown_model"
	rejectBadHello     = "bad_hello"
	// rejectDraining: the engine is draining ahead of a stop (fleet
	// scale-down) and accepts no new sessions.
	rejectDraining = "draining"
	// rejectNoBackend: a fleet front tier could not place the session on
	// any live replica.
	rejectNoBackend = "no_backend"
)

// Resumption outcome codes carried in welcomeMsg.ResumeReject. Unlike a
// rejectMsg these are not handshake-fatal: a rejected ticket falls back to
// the full base-OT path on the same connection, and the codes let clients
// (and tests) distinguish why the fast path was missed.
const (
	// resumeUnknownTicket: the ticket is not in the server's cache — never
	// issued by this engine, or evicted under ticket-budget pressure.
	resumeUnknownTicket = "unknown_ticket"
	// resumeExpiredTicket: the ticket was cached but its TTL had lapsed.
	resumeExpiredTicket = "expired_ticket"
	// resumeBadNonce: the hello carried a ticket without a client nonce.
	resumeBadNonce = "bad_nonce"
	// resumeDisabled: the engine runs with resumption turned off.
	resumeDisabled = "resume_disabled"
	// resumeColourBit: the ticket's OT sender state has an s with lsb 0,
	// which cannot be the free-XOR offset it must be since wire v16; the
	// ticket is dropped, and the full handshake issues one that resumes.
	resumeColourBit = "colour_bit"
)

// rejectMsg is a typed handshake rejection: a stable machine-readable code
// plus a human-readable message. It replaces the generic opErr string for
// handshake failures so clients can distinguish "wrong wire version" from
// "no such model" programmatically.
type rejectMsg struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Sentinel errors for typed handshake rejections; match with errors.Is.
var (
	// ErrVersionMismatch reports that client and server speak different
	// wire protocol versions.
	ErrVersionMismatch = errors.New("serve: wire version mismatch")
	// ErrUnknownModel reports that the requested model name is not in the
	// engine's registry (or that no model was named and the engine has no
	// default).
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrDraining reports that the engine is draining ahead of a stop and
	// accepts no new sessions.
	ErrDraining = errors.New("serve: engine draining")
	// ErrNoBackend reports that a fleet front tier could not place the
	// session on any live replica.
	ErrNoBackend = errors.New("serve: no backend available")
	// ErrBadFrame reports a frame the wire protocol has no meaning for: an
	// opcode neither side's dispatch table knows, a frame with an unknown
	// tag byte, or a control frame too short to carry an opcode. It is the
	// typed form of "the peer is speaking something else" — sessions fail
	// loudly on it instead of silently dropping the frame.
	ErrBadFrame = errors.New("serve: malformed or unknown frame")
)

// HandshakeError is the client-side form of a typed handshake rejection.
// It unwraps to the matching sentinel (ErrVersionMismatch,
// ErrUnknownModel) so callers can branch with errors.Is while still seeing
// the server's full message.
type HandshakeError struct {
	Code    string
	Message string
}

func (e *HandshakeError) Error() string {
	return fmt.Sprintf("serve: handshake rejected (%s): %s", e.Code, e.Message)
}

func (e *HandshakeError) Unwrap() error {
	switch e.Code {
	case rejectVersion:
		return ErrVersionMismatch
	case rejectUnknownModel:
		return ErrUnknownModel
	case rejectDraining:
		return ErrDraining
	case rejectNoBackend:
		return ErrNoBackend
	case rejectBadHello:
		return ErrBadFrame
	}
	return nil
}

// sendReject answers a handshake with a typed rejection and counts the
// outcome on the rejecting component's registry (an engine's, or the front
// tier's that peeked the opening).
func sendReject(c transport.MsgConn, reg *obs.Registry, code, message string) error {
	handshakeOutcomes(reg).With(code).Inc()
	return sendCtrl(c, opReject, marshalJSON(rejectMsg{Code: code, Message: message}))
}

func sendCtrl(c transport.MsgConn, op byte, body []byte) error {
	return c.Send(ctrlFrame(op, body))
}

// ctrlFrame assembles a control frame: tag, opcode, body.
func ctrlFrame(op byte, body []byte) []byte {
	f := make([]byte, 0, 2+len(body))
	f = append(f, tagCtrl, op)
	return append(f, body...)
}

// recvCtrl reads one frame and requires it to be a control frame; it is
// used only during the handshake, before the demultiplexer starts.
func recvCtrl(c transport.MsgConn) (byte, []byte, error) {
	f, err := c.Recv()
	if err != nil {
		return 0, nil, err
	}
	return parseCtrl(f)
}

// parseCtrl interprets an already-received frame as a control frame (the
// handshake path reads the first frame raw to check for a connection
// preamble before knowing what it is).
func parseCtrl(f []byte) (byte, []byte, error) {
	if len(f) < 2 || f[0] != tagCtrl {
		return 0, nil, fmt.Errorf("serve: expected control frame, got %d bytes tag %#x", len(f), first(f))
	}
	return f[1], f[2:], nil
}

func first(f []byte) byte {
	if len(f) == 0 {
		return 0
	}
	return f[0]
}

func unmarshalJSON(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("serve: decode message: %w", err)
	}
	return nil
}

func marshalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All wire structs are plain data; failure is a programming error.
		panic("serve: marshal: " + err.Error())
	}
	return b
}
