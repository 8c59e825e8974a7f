package delphi

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"privinf/internal/bfv"
	"privinf/internal/garble"
)

// HE key reuse across sessions. A full handshake's per-session BFV keygen
// is cheap compute, but shipping the public key is a full N-coefficient
// pair on the wire — and once OT resumption (ot/resume.go) removed the
// base OTs, keygen plus the key flight is what dominates a resumed
// connect. The fix mirrors the OT design: the client keeps a long-lived
// master secret (a 32-byte seed in its preamble) and derives key pairs
// from it under derivation nonces. One derived pair serves every resumed
// session of one ticket generation, so a resumed connect runs zero keygen
// and sends zero key bytes; each full handshake bumps the nonce and
// derives a fresh pair, so no derivation nonce is ever reused for new key
// material (the invariant docs/invariants.md states).
//
// Reusing a key pair across sessions is safe in the semi-honest model for
// the same reason any public-key reuse is: semantic security rests on
// fresh randomness, which every upload and every re-randomized response
// still draws from its session's entropy. The server needs the public key
// for every response it re-randomizes (bfv's circuit privacy), so the
// resumption ticket keeps it, seeded, beside the OT state: a resumed
// connect sends no key. A ticket written before wire v13 holds none; the
// welcome asks for it, the client sends its seeded key once (the same
// generation, no nonce bump) and the server adds it to the ticket.

// HEKeyPair is a reusable client HE key pair: the unit a preamble caches
// and a resumed session installs instead of running keygen. SK is secret
// key material — a pair belongs to one client, like the OT states it is
// cached alongside.
type HEKeyPair struct {
	SK bfv.SecretKey
	PK bfv.PublicKey
}

// Validate checks the pair against a parameter set — the guard a session
// runs before installing a deserialized or cached pair.
func (kp HEKeyPair) Validate(p bfv.Params) error {
	if kp.SK.Degree() != p.N || kp.PK.Degree() != p.N {
		return fmt.Errorf("delphi: HE key pair degrees (sk=%d, pk=%d) != ring degree %d",
			kp.SK.Degree(), kp.PK.Degree(), p.N)
	}
	return nil
}

// hekeyDeriveTag domain-separates the key-derivation hash from every other
// use of the master seed.
const hekeyDeriveTag = "privinf/he-derive/v1"

// DeriveHEKeyPair deterministically derives a key pair from a master seed
// under a derivation nonce: bfv.KeyGen run on an AES-CTR PRG keyed with
// SHA-256(tag || seed || N || T || nonce). The same (seed, params, nonce)
// always yields the same pair — that is what lets a persisted preamble
// re-derive its keys bit-identically after a process restart — and
// distinct nonces yield computationally independent pairs. Callers must
// never reuse a nonce for new key material; the preamble bumps it on
// every full handshake.
func DeriveHEKeyPair(p bfv.Params, seed []byte, nonce uint64) (HEKeyPair, error) {
	if len(seed) == 0 {
		return HEKeyPair{}, fmt.Errorf("delphi: derive HE keys: empty master seed")
	}
	h := sha256.New()
	h.Write([]byte(hekeyDeriveTag))
	h.Write(seed)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(p.N))
	h.Write(w[:])
	binary.LittleEndian.PutUint64(w[:], p.T)
	h.Write(w[:])
	binary.LittleEndian.PutUint64(w[:], nonce)
	h.Write(w[:])
	var prgSeed [garble.LabelSize]byte
	copy(prgSeed[:], h.Sum(nil))
	sk, pk := bfv.KeyGen(p, garble.NewPRG(prgSeed))
	return HEKeyPair{SK: sk, PK: pk}, nil
}

// useKeys installs a reusable key pair in place of setupKeys' per-session
// generation: same decryptor/encryptor wiring, no keygen, and nothing sent
// — the peer must already hold (or not need) the public key. Encryption
// randomness still comes from the session's own entropy, which is what
// keeps reuse semantically secure.
func (c *Client) useKeys(keys HEKeyPair) error {
	if err := keys.Validate(c.cfg.HEParams); err != nil {
		return err
	}
	c.installKeys(keys.SK)
	return nil
}

// SetupResumed is Setup for a session resumed from cached state: the HE
// keys are a cached reusable pair (no keygen runs) and the OT streams
// expand from res under nonce (no base OTs), so the session's only setup
// cost is installing the pair. The public key crosses the wire only when
// sendKey says the server's ticket holds none. The peer must run the
// server's SetupResumed with its matching state, the same nonce, and a
// zero key exactly when sendKey is set.
func (c *Client) SetupResumed(res *OTResume, nonce []byte, keys HEKeyPair, sendKey bool) error {
	if err := c.useKeys(keys); err != nil {
		return err
	}
	if res == nil {
		return fmt.Errorf("delphi: client resume: nil OT state")
	}
	if sendKey {
		if err := c.sendKey(keys.PK); err != nil {
			return err
		}
	}
	return c.setupOT(c.cfg.Variant == ClientGarbler, res, nonce)
}

// SetupResumed is the server half of a resumed session: pk is the public
// key the ticket holds, and OT setup expands from cached material. A zero
// pk (a ticket from before wire v13) is received from the client instead.
func (s *Server) SetupResumed(res *OTResume, nonce []byte, pk bfv.PublicKey) error {
	if res == nil {
		return fmt.Errorf("delphi: server resume: nil OT state")
	}
	switch pk.Degree() {
	case 0:
		if err := s.recvKey(); err != nil {
			return err
		}
	case s.cfg.HEParams.N:
		s.pk = pk
	default:
		return fmt.Errorf("delphi: server resume: public key of degree %d, ring degree %d", pk.Degree(), s.cfg.HEParams.N)
	}
	return s.setupOT(s.cfg.Variant == ServerGarbler, res, nonce)
}
