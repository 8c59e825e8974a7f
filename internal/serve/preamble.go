package serve

import (
	"io"
	"sync"

	"privinf/internal/bfv"
	"privinf/internal/delphi"
)

// Preamble is a client's reusable session-preamble state — everything a
// repeat client can carry from one session into the next to collapse
// connect latency:
//
//   - the OT resumption ticket from its last full handshake, paired with
//     the client-side seed material it resumes from, so reconnects skip
//     the public-key base OTs entirely; and
//   - the BFV key pair its last keygen drew, so a resumed connect skips the
//     keygen. It still sends the public key, which re-randomizes every
//     response: the server keeps it for the session only, and its ticket
//     holds OT seeds alone.
//
// It holds no model state: every session derives its matvec plans and ReLU
// circuits from the welcome's metadata (delphi.NewClient).
//
// Pass one Preamble (WithPreamble) to every Connect/Dial call of a logical
// client; it is updated in place after each handshake (a full handshake
// stores a fresh ticket and key pair). Safe for concurrent use. A
// Preamble holds secret OT correlation material and HE secret-key
// material — it belongs to one client and must not be shared between
// mutually distrusting parties.
type Preamble struct {
	mu     sync.Mutex
	ticket []byte
	state  *delphi.OTResume

	// heKeys is the pair the last keygen drew, under heParams. A resumed
	// connect under the same parameters reuses it; any other connect
	// draws and holds a fresh one.
	heKeys   *delphi.HEKeyPair
	heParams bfv.Params
}

// NewPreamble returns an empty preamble.
func NewPreamble() *Preamble {
	return &Preamble{}
}

// HasTicket reports whether the preamble holds a resumption ticket.
func (p *Preamble) HasTicket() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ticket) > 0
}

// SizeBytes reports the preamble's resident footprint: OT seed material
// and the key pair as held — sk, and pk seeded, seed ‖ b.
func (p *Preamble) SizeBytes() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	if p.state != nil {
		n += uint64(p.state.SizeBytes())
	}
	if p.heKeys != nil {
		// sk is one ring element, 8 bytes a coefficient.
		n += uint64(p.heKeys.SK.Degree())*8 + uint64(len(p.heKeys.PK))
	}
	return n
}

// ticketSnapshot returns the current ticket and its paired client-side
// state (nil when none).
func (p *Preamble) ticketSnapshot() ([]byte, *delphi.OTResume) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ticket, p.state
}

// storeTicket replaces the ticket/state pair after a full handshake. A nil
// preamble keeps nothing.
func (p *Preamble) storeTicket(ticket []byte, state *delphi.OTResume) {
	if p == nil || len(ticket) == 0 || state == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ticket = append([]byte(nil), ticket...)
	p.state = state
}

// sessionKeys returns the HE key pair for a session under params. A
// resumed session reuses the held pair when it is under params, so no
// keygen runs; any other session draws a fresh pair from entropy (nil:
// crypto/rand) and holds it for the resumed sessions that follow. A nil
// preamble holds nothing: every session draws.
func (p *Preamble) sessionKeys(params bfv.Params, entropy io.Reader, resumed bool) (delphi.HEKeyPair, error) {
	if p != nil && resumed {
		p.mu.Lock()
		held, under := p.heKeys, p.heParams
		p.mu.Unlock()
		if held != nil && under.N == params.N && under.T == params.T {
			return *held, nil
		}
	}
	keys, err := delphi.NewHEKeyPair(params, entropy)
	if err != nil || p == nil {
		return keys, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.heKeys, p.heParams = &keys, params
	return keys, nil
}
