package serve

import (
	"crypto/rand"
	"fmt"
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
//   - a master HE key seed plus the BFV key pair derived from it for the
//     current ticket generation, so a resumed connect skips the BFV keygen.
//     It still sends the public key, which re-randomizes every response:
//     the server keeps it for the session only, and its ticket holds OT
//     seeds alone.
//
// It holds no model state: every session derives its matvec plans and ReLU
// circuits from the welcome's metadata (delphi.NewClient).
//
// Pass one Preamble (WithPreamble) to every Connect/Dial call of a logical
// client; it is updated in place after each handshake (a full handshake
// stores a fresh ticket and key generation). Safe for concurrent use. A
// Preamble holds secret OT correlation material and HE secret-key
// material — it belongs to one client and must not be shared between
// mutually distrusting parties.
type Preamble struct {
	mu     sync.Mutex
	ticket []byte
	state  *delphi.OTResume

	// HE key reuse. heSeed is the client's long-lived 32-byte master seed,
	// drawn once; per-generation keys are derived from it under heNonce, a
	// strictly increasing counter — every full handshake bumps it and
	// derives a fresh pair, so no derivation nonce is ever reused for new
	// key material (see docs/invariants.md). heKeys/heParams cache the
	// current generation's pair: valid exactly as long as the ticket the
	// server issued against its public key.
	heSeed   []byte
	heNonce  uint64
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

// SizeBytes reports the preamble's resident footprint: OT seed material,
// the master HE seed, and the key pair as held — sk, and pk seeded, seed ‖
// b.
func (p *Preamble) SizeBytes() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	if p.state != nil {
		n += uint64(p.state.SizeBytes())
	}
	n += uint64(len(p.heSeed))
	if p.heKeys != nil {
		// sk and b are one ring element each, 8 bytes a coefficient.
		n += uint64(p.heKeys.SK.Degree())*8*2 + bfv.SeedSize
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

// storeTicket replaces the ticket/state pair after a full handshake.
func (p *Preamble) storeTicket(ticket []byte, state *delphi.OTResume) {
	if len(ticket) == 0 || state == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ticket = append([]byte(nil), ticket...)
	p.state = state
}

// heSeedBytes is the master HE key seed length: 256 bits, matching the
// derivation hash's block of extracted entropy.
const heSeedBytes = 32

// freshHEKeys derives the next generation's HE key pair for a full
// handshake: draw the master seed if this preamble has none yet, bump the
// derivation nonce (never reused), derive under params, and cache the pair
// for the resumed sessions that follow. A nil entropy falls back to the
// system RNG, mirroring randomID.
func (p *Preamble) freshHEKeys(params bfv.Params, entropy io.Reader) (delphi.HEKeyPair, error) {
	// Draw candidate seed material outside p.mu — entropy reads are I/O.
	if entropy == nil {
		entropy = rand.Reader
	}
	candidate := make([]byte, heSeedBytes)
	if _, err := io.ReadFull(entropy, candidate); err != nil {
		return delphi.HEKeyPair{}, fmt.Errorf("serve: preamble HE seed entropy: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.heSeed) == 0 {
		p.heSeed = candidate
	}
	p.heNonce++
	keys, err := delphi.DeriveHEKeyPair(params, p.heSeed, p.heNonce)
	if err != nil {
		return delphi.HEKeyPair{}, err
	}
	p.heKeys, p.heParams = &keys, params
	return keys, nil
}

// resumeHEKeys returns the cached key pair for a resumed session under
// params, or false when the preamble holds none (or holds one derived
// under a different parameter set — a changed engine configuration means
// the ticket will not resume either).
func (p *Preamble) resumeHEKeys(params bfv.Params) (delphi.HEKeyPair, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.heKeys == nil || p.heParams.N != params.N || p.heParams.T != params.T {
		return delphi.HEKeyPair{}, false
	}
	return *p.heKeys, true
}
