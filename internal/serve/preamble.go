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
//   - per-model shared client artifacts (delphi.ClientShared: ReLU
//     circuits + matvec plans, no secrets), the client-side analog of the
//     server's SharedModel, built once per process per model from the
//     welcome's metadata and reused across all of that client's sessions
//     (a PreambleStore does not persist them); and
//   - a master HE key seed plus the BFV key pair derived from it for the
//     current ticket generation, so a resumed connect skips both the BFV
//     keygen and the public-key flight (the server validated and discarded
//     this pk at ticket issue — it computes only on ciphertexts).
//
// Pass one Preamble (WithPreamble) to every Connect/Dial call of a logical
// client; it is updated in place after each handshake (fresh ticket on a
// full handshake, artifact cache fills on first use of a model). Safe for
// concurrent use. A Preamble holds secret OT correlation material and HE
// secret-key material — it belongs to one client and must not be shared
// between mutually distrusting parties.
type Preamble struct {
	mu     sync.Mutex
	ticket []byte
	state  *delphi.OTResume
	shared map[string]*delphi.ClientShared

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
	return &Preamble{shared: map[string]*delphi.ClientShared{}}
}

// HasTicket reports whether the preamble holds a resumption ticket.
func (p *Preamble) HasTicket() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ticket) > 0
}

// ForgetTicket drops the resumption ticket (and its seed material) while
// keeping the shared artifacts — the artifact-warm tier: the next connect
// runs full base OTs but still skips circuit and plan construction. The
// cached HE key pair goes with the ticket (it belongs to that ticket's
// generation); the master seed stays, so the next full handshake derives
// the next generation instead of re-drawing entropy.
func (p *Preamble) ForgetTicket() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ticket, p.state = nil, nil
	p.heKeys = nil
}

// SizeBytes reports the preamble's resident footprint: cached shared
// artifacts plus OT seed material.
func (p *Preamble) SizeBytes() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	if p.state != nil {
		n += uint64(p.state.SizeBytes())
	}
	for _, cs := range p.shared {
		n += cs.SizeBytes()
	}
	n += uint64(len(p.heSeed))
	if p.heKeys != nil {
		// sk is one ring element, pk two, 8 bytes per coefficient.
		n += uint64(p.heKeys.SK.Degree()) * 8 * 3
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

// sharedFor returns the cached client artifact for a model name, building
// and caching one when absent or when the engine's metadata for the name
// changed (a re-registered model, or a colliding name on another engine).
func (p *Preamble) sharedFor(model string, params bfv.Params, meta delphi.ModelMeta) (*delphi.ClientShared, error) {
	p.mu.Lock()
	cs, ok := p.shared[model]
	p.mu.Unlock()
	if ok && cs.Params().T == params.T && cs.Params().N == params.N && cs.Meta().Equal(meta) {
		return cs, nil
	}
	cs, err := delphi.NewClientShared(params, meta)
	if err != nil {
		return nil, fmt.Errorf("serve: preamble artifact for %q: %w", model, err)
	}
	p.mu.Lock()
	p.shared[model] = cs
	p.mu.Unlock()
	return cs, nil
}
