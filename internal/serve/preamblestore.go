package serve

import (
	"errors"
	"fmt"

	"privinf/internal/bfv"
	"privinf/internal/bin"
	"privinf/internal/delphi"
)

// PreambleStore is the client-side analog of the server's durable state: a
// directory of persisted Preambles, one framed file per logical client
// name. With both a ticket store on the engine and a preamble store on the
// client, session resumption survives full process restarts of either or
// both parties — a cold client process loads its preamble and reconnects
// on the resumed fast path: no base OTs and no BFV keygen; the stored
// public key crosses as on every connect. Circuits and plans are not
// stored: they are rebuilt once per process per model, from the welcome's
// metadata.
//
// Files use the serve package's shared framing (see framing.go) and
// atomic-write discipline, with typed failure sentinels: a missing file is
// ErrPreambleNotFound (a plain miss — start fresh), a damaged one
// ErrPreambleCorrupt, a version-skewed one ErrPreambleVersion. Every
// failure mode falls back to NewPreamble and a full handshake.
//
// A persisted preamble holds the client's HE secret key and OT
// correlation seeds in plaintext. Files are created 0600 in a 0700
// directory; protecting the directory beyond filesystem permissions
// (encryption at rest) is the deployment's responsibility — see
// docs/invariants.md.
type PreambleStore struct {
	ds *durableStore[*Preamble]
}

// Sentinel errors distinguishing the preamble store's failure modes; match
// with errors.Is.
var (
	// ErrPreambleNotFound reports that no preamble is stored under the name.
	ErrPreambleNotFound = errors.New("serve: preamble not found")
	// ErrPreambleCorrupt reports a damaged file: truncation, framing
	// inconsistency, checksum mismatch, or a payload the codec rejects.
	ErrPreambleCorrupt = errors.New("serve: preamble corrupt")
	// ErrPreambleVersion reports a file written under a different preamble
	// format version.
	ErrPreambleVersion = errors.New("serve: preamble format version mismatch")
)

// preambleFormatVersion is bumped whenever the framing or payload layout
// changes; readers reject any other version and the client falls back to a
// full handshake.
const preambleFormatVersion = 1

// preambleSuffix is the extension every published preamble file carries.
const preambleSuffix = ".pipre"

var preambleFrame = frameSpec{
	magic:       [4]byte{'P', 'I', 'P', 'B'},
	version:     preambleFormatVersion,
	label:       "preamble store",
	suffix:      preambleSuffix,
	dirMode:     0o700,
	errNotFound: ErrPreambleNotFound,
	errCorrupt:  ErrPreambleCorrupt,
	errVersion:  ErrPreambleVersion,
}

// NewPreambleStore opens (creating if necessary) a preamble store rooted
// at dir and sweeps orphaned temp files from crashed atomic writes. The
// directory is created 0700: every file holds secret key material.
func NewPreambleStore(dir string) (*PreambleStore, error) {
	ds, err := openDurableStore(preambleFrame, dir, (*Preamble).MarshalBinary)
	if err != nil {
		return nil, err
	}
	return &PreambleStore{ds: ds}, nil
}

// Path returns the file path a client name maps to (URL-path-escaped, like
// artifact names).
func (ps *PreambleStore) Path(name string) string { return ps.ds.path(name) }

// Save atomically persists a snapshot of the preamble under name,
// replacing any previous version. Call it after a successful connect (the
// handshake may have refreshed the ticket or drawn new keys).
func (ps *PreambleStore) Save(name string, p *Preamble) error {
	if p == nil {
		return fmt.Errorf("serve: preamble store: nil preamble %q", name)
	}
	return ps.ds.save(name, p)
}

// Load reads, verifies and decodes the preamble stored under name. Absent
// files return ErrPreambleNotFound; damaged or incompatible files —
// including an intact payload the codec rejects — return errors matching
// ErrPreambleCorrupt or ErrPreambleVersion. Callers treat every error the
// same way: start from NewPreamble.
func (ps *PreambleStore) Load(name string) (*Preamble, error) {
	return ps.ds.load(name, UnmarshalPreamble)
}

// Forget deletes the stored preamble for name, if any.
func (ps *PreambleStore) Forget(name string) error { return ps.ds.remove(name) }

// MarshalBinary encodes a snapshot of the preamble for UnmarshalPreamble:
// the ticket/OT-state pair, the held key pair, and an artifact count that
// is always zero — a client's model state is derived from each welcome, so
// none is stored. Where older writers put a master HE seed and its
// derivation nonce it writes an empty seed and a zero nonce, so older
// readers still load the file. Integrity and versioning belong to the
// enclosing frame.
func (p *Preamble) MarshalBinary() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var w bin.Writer
	w.Blob(p.ticket)
	if p.state != nil {
		raw, err := p.state.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.U64(1)
		w.Blob(raw)
	} else {
		w.U64(0)
	}
	w.Blob(nil) // master seed
	w.U64(0)    // derivation nonce
	if p.heKeys != nil {
		w.U64(1)
		w.U64(uint64(p.heParams.N))
		w.U64(p.heParams.T)
		sk, err := p.heKeys.SK.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Blob(sk)
		w.Blob(p.heKeys.PK)
	} else {
		w.U64(0)
	}
	w.U64(0)
	return w.Buf, nil
}

// preambleSeedBytes is the length of the master HE seed preambles written
// before the key pair was held as drawn: a stored seed is empty or this
// long, and is discarded on load.
const preambleSeedBytes = 32

// UnmarshalPreamble decodes a payload produced by Preamble.MarshalBinary,
// rejecting truncated fields, hostile lengths, inconsistent key material
// and trailing bytes. A decoded preamble is immediately usable: a held key
// pair is checked against its recorded parameter set. An older writer's
// master seed and nonce are read and discarded, and so is a pair whose
// public key predates wire v13's seeded form, (degree ‖ b ‖ a): the next
// connect draws a fresh pair. The (name, artifact) entries an older writer
// stored after the keys are read and discarded too: each session derives
// its model state from the welcome.
func UnmarshalPreamble(data []byte) (*Preamble, error) {
	r := bin.NewReader(data)
	p := NewPreamble()
	if ticket := r.Blob(); len(ticket) > 0 {
		if r.Err() == nil && len(ticket) != ticketIDBytes {
			return nil, fmt.Errorf("serve: preamble ticket is %d bytes, want %d", len(ticket), ticketIDBytes)
		}
		p.ticket = append([]byte(nil), ticket...)
	}
	if hasState := r.U64(); r.Err() == nil && hasState != 0 {
		if hasState != 1 {
			return nil, fmt.Errorf("serve: preamble OT-state flag %d", hasState)
		}
		raw := r.Blob()
		if r.Err() != nil {
			return nil, fmt.Errorf("serve: preamble: %w", r.Err())
		}
		state, err := delphi.UnmarshalOTResume(raw)
		if err != nil {
			return nil, err
		}
		p.state = state
	}
	if seed := r.Blob(); len(seed) != 0 && len(seed) != preambleSeedBytes {
		return nil, fmt.Errorf("serve: preamble HE seed is %d bytes, want %d", len(seed), preambleSeedBytes)
	}
	r.U64() // derivation nonce
	if hasKeys := r.U64(); r.Err() == nil && hasKeys != 0 {
		if hasKeys != 1 {
			return nil, fmt.Errorf("serve: preamble HE-keys flag %d", hasKeys)
		}
		n := int(r.U64())
		t := r.U64()
		skRaw := r.Blob()
		pkRaw := r.Blob()
		if r.Err() != nil {
			return nil, fmt.Errorf("serve: preamble: %w", r.Err())
		}
		params, err := bfv.NewParams(n, t)
		if err != nil {
			return nil, fmt.Errorf("serve: preamble HE params: %w", err)
		}
		keys := delphi.HEKeyPair{PK: append([]byte(nil), pkRaw...)}
		if err := keys.SK.UnmarshalBinary(skRaw); err != nil {
			return nil, err
		}
		_, err = bfv.ParsePublicKey(params.N, pkRaw)
		switch {
		case err == nil:
			if err := keys.Validate(params); err != nil {
				return nil, err
			}
			p.heKeys, p.heParams = &keys, params
		case len(pkRaw) != 8+16*params.N: // not the pre-v13 form either
			return nil, fmt.Errorf("serve: preamble: %w", err)
		}
	}
	for i, n := 0, r.Count(16); i < n; i++ {
		r.Blob()
		r.Blob()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("serve: preamble: %w", err)
	}
	// A ticket without its OT state (or vice versa) cannot resume; reject
	// the pairing violation rather than persist a half-usable credential.
	if (len(p.ticket) > 0) != (p.state != nil) {
		return nil, fmt.Errorf("serve: preamble ticket/OT-state pairing violated")
	}
	return p, nil
}
