package delphi

import (
	"fmt"
	"io"

	"privinf/internal/bfv"
)

// HE key reuse across sessions. A full handshake's per-session BFV keygen
// is cheap compute but not free, and once OT resumption (ot/resume.go)
// removed the base OTs it is most of what a resumed connect would do. So
// a client may keep the pair its last keygen drew (a serve.Preamble does)
// and install it on a resumed session instead of running keygen.
//
// Reusing a key pair across sessions is safe in the semi-honest model for
// the same reason any public-key reuse is: semantic security rests on
// fresh randomness, which every upload and every re-randomized response
// still draws from its session's entropy. The server needs the public key
// for every response it re-randomizes (bfv's circuit privacy), and it
// keeps no copy past the session: every connect, resumed or full, sends
// the seeded key (seed ‖ b, 32,784 B at N = 4096) right after the welcome,
// so a resumption ticket holds OT seeds only.

// HEKeyPair is a reusable client HE key pair: the unit a preamble holds
// and a resumed session installs instead of running keygen. PK is the
// public key as every connect sends it, seed ‖ b. SK is secret key
// material — a pair belongs to one client, like the OT states it is held
// alongside.
type HEKeyPair struct {
	SK bfv.SecretKey
	PK []byte
}

// NewHEKeyPair runs bfv.KeyGen on entropy (nil: crypto/rand) and keeps the
// public key in the form every connect sends.
func NewHEKeyPair(p bfv.Params, entropy io.Reader) (HEKeyPair, error) {
	sk, pk := bfv.KeyGen(p, entropy)
	raw, err := pk.MarshalBinary()
	return HEKeyPair{SK: sk, PK: raw}, err
}

// Validate checks the pair against a parameter set — the guard a session
// runs before installing a deserialized or held pair.
func (kp HEKeyPair) Validate(p bfv.Params) error {
	if kp.SK.Degree() != p.N || len(kp.PK) != bfv.SeedSize+8*p.N {
		return fmt.Errorf("delphi: HE key pair (sk degree %d, pk %d B) is no pair of ring degree %d",
			kp.SK.Degree(), len(kp.PK), p.N)
	}
	return nil
}

// SetupKeys is Setup on a given key pair, so no keygen runs. With a nil
// res it sends the public key and runs the base OTs, as Setup does (nonce
// is unused). Otherwise the session resumes: the OT streams expand from
// res under nonce, which sends nothing, so a bad pair or state fails
// before any traffic, and then the public key is sent, as on a full
// handshake. The peer must run the server's SetupResumed with its
// matching state and the same nonce.
func (c *Client) SetupKeys(keys HEKeyPair, res *OTResume, nonce []byte) error {
	if err := keys.Validate(c.cfg.HEParams); err != nil {
		return err
	}
	garbler := c.cfg.Variant == ClientGarbler
	if res == nil {
		if err := c.useKeys(keys); err != nil {
			return err
		}
		return c.setupOT(garbler, nil, nil)
	}
	if err := c.setupOT(garbler, res, nonce); err != nil {
		return err
	}
	return c.useKeys(keys)
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
