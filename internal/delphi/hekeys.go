package delphi

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"privinf/internal/bfv"
	"privinf/internal/garble"
)

// HE key reuse across sessions. A full handshake's per-session BFV keygen
// is cheap compute but not free, and once OT resumption (ot/resume.go)
// removed the base OTs it is most of what a resumed connect would do. The
// fix mirrors the OT design: the client keeps a long-lived master secret
// (a 32-byte seed in its preamble) and derives key pairs from it under
// derivation nonces. One derived pair serves every resumed session of one
// ticket generation, so a resumed connect runs zero keygen; each full
// handshake bumps the nonce and derives a fresh pair, so no derivation
// nonce is ever reused for new key material (the invariant
// docs/invariants.md states).
//
// Reusing a key pair across sessions is safe in the semi-honest model for
// the same reason any public-key reuse is: semantic security rests on
// fresh randomness, which every upload and every re-randomized response
// still draws from its session's entropy. The server needs the public key
// for every response it re-randomizes (bfv's circuit privacy), and it
// keeps no copy past the session: every connect, resumed or full, sends
// the seeded key (seed ‖ b, 32,784 B at N = 4096) right after the welcome,
// so a resumption ticket holds OT seeds only.

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

// SetupKeys is Setup on a given key pair, a preamble's fresh or cached
// one, so no keygen runs. With a nil res it sends the public key and runs
// the base OTs, as Setup does (nonce is unused). Otherwise the session
// resumes: the OT streams expand from res under nonce, which sends
// nothing, so a bad pair or state fails before any traffic, and then the
// public key is sent, as on a full handshake. The peer must run the
// server's SetupResumed with its matching state and the same nonce.
func (c *Client) SetupKeys(keys HEKeyPair, res *OTResume, nonce []byte) error {
	if err := keys.Validate(c.cfg.HEParams); err != nil {
		return err
	}
	garbler := c.cfg.Variant == ClientGarbler
	if res == nil {
		if err := c.useKeys(keys.SK, keys.PK); err != nil {
			return err
		}
		return c.setupOT(garbler, nil, nil)
	}
	if err := c.setupOT(garbler, res, nonce); err != nil {
		return err
	}
	return c.useKeys(keys.SK, keys.PK)
}

// SetupResumed is the server half of a resumed session: OT setup expands
// from cached material, then the client's public key is received, as
// Setup receives it.
func (s *Server) SetupResumed(res *OTResume, nonce []byte) error {
	if res == nil {
		return fmt.Errorf("delphi: server resume: nil OT state")
	}
	if err := s.setupOT(s.cfg.Variant == ServerGarbler, res, nonce); err != nil {
		return err
	}
	return s.recvKey()
}
