package ot

import (
	"bytes"
	"crypto/ecdh"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strings"
	"testing"

	"privinf/internal/transport"
)

// scripted is a base-OT peer that is not this code: each Recv answers with
// the next scripted frame, built from what the endpoint under test has sent
// so far (io.EOF once the script is spent), and Send only records.
type scripted struct {
	transport.MsgConn // counters unused
	script            []func(sent [][]byte) []byte
	sent              [][]byte
}

func (c *scripted) Send(p []byte) error {
	c.sent = append(c.sent, append([]byte(nil), p...))
	return nil
}

func (c *scripted) Recv() ([]byte, error) {
	if len(c.script) == 0 {
		return nil, io.EOF
	}
	next := c.script[0]
	c.script = c.script[1:]
	return next(c.sent), nil
}

func frame(p []byte) func([][]byte) []byte { return func([][]byte) []byte { return p } }

// compressed encodes kG, computed by crypto/ecdh rather than the code
// under test.
func compressed(k int64) []byte {
	sk, err := ecdh.P256().NewPrivateKey(big.NewInt(k).FillBytes(make([]byte, 32)))
	if err != nil {
		panic(err)
	}
	pub := sk.PublicKey().Bytes() // 0x04 | x | y
	return append([]byte{2 | pub[64]&1}, pub[1:33]...)
}

// curveX reports whether x³ − 3x + b is a square mod p, i.e. whether some
// point has abscissa x — decided by the Jacobi symbol, not by the decoder
// under test.
func curveX(x *big.Int) bool {
	p := curve.Params().P
	rhs := new(big.Int).Exp(x, big.NewInt(3), p)
	rhs.Sub(rhs, new(big.Int).Mul(big.NewInt(3), x))
	rhs.Add(rhs, curve.Params().B)
	rhs.Mod(rhs, p)
	return big.Jacobi(rhs, p) >= 0
}

// badPoints are 33-byte strings that decode to no P-256 point, each for its
// own reason.
func badPoints() map[string][]byte {
	enc := func(prefix byte, x *big.Int) []byte {
		return append([]byte{prefix}, x.FillBytes(make([]byte, 32))...)
	}
	off, on := big.NewInt(1), big.NewInt(1)
	for curveX(off) {
		off.Add(off, big.NewInt(1))
	}
	for !curveX(on) {
		on.Add(on, big.NewInt(1))
	}
	g := compressed(1)
	return map[string][]byte{
		"off-curve": enc(0x02, off),
		// x + p reduces to an abscissa that is on the curve, so only the
		// canonical-encoding check stands between it and a valid point.
		"non-canonical x": enc(0x02, new(big.Int).Add(on, curve.Params().P)),
		"prefix 0x04":     append([]byte{0x04}, g[1:]...),
		"prefix 0x00":     append([]byte{0x00}, g[1:]...),
		"all zero":        make([]byte, pointBytes),
	}
}

// noPanic runs fn and turns a panic into a test failure.
func noPanic(t *testing.T, name string, fn func() error) (err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: panic: %v", name, p)
		}
	}()
	return fn()
}

// validB is a well-formed B frame: kappa distinct multiples of G.
func validB() []byte {
	out := make([]byte, 0, kappa*pointBytes)
	for i := 0; i < kappa; i++ {
		out = append(out, compressed(int64(i+2))...)
	}
	return out
}

// TestBaseOTRejectsBadPoints drives both base-OT roles against a scripted
// peer: a flight of the wrong length is a *FrameSizeError, a point that
// does not decode is an error naming its OT, and neither role panics or
// sends another frame after the bad one. A B_i equal to A — whose k1 shared
// point is the identity — completes.
func TestBaseOTRejectsBadPoints(t *testing.T) {
	var choices Message
	for i := range choices {
		choices[i] = 0xA5
	}
	chooser := func(a []byte) (*scripted, error) {
		c := &scripted{script: []func([][]byte) []byte{frame(a)}}
		_, err := baseReceive(c, choices, newSeeded(60))
		return c, err
	}
	sender := func(b func([][]byte) []byte) (*scripted, error) {
		c := &scripted{script: []func([][]byte) []byte{b}}
		_, err := baseSend(c, newSeeded(61))
		return c, err
	}
	wantSize := func(name string, err error, frame string, got, want int) {
		t.Helper()
		var fe *FrameSizeError
		if !errors.As(err, &fe) || *fe != (FrameSizeError{Frame: frame, Got: got, Want: want}) {
			t.Fatalf("%s: error %v, want a FrameSizeError{%q, %d, %d}", name, err, frame, got, want)
		}
	}

	for _, n := range []int{0, pointBytes - 1, pointBytes + 1, 65} {
		name := fmt.Sprintf("A of %d bytes", n)
		a := append(compressed(7), make([]byte, 64)...)[:n]
		var c *scripted
		err := noPanic(t, name, func() (err error) { c, err = chooser(a); return })
		wantSize(name, err, "base A", n, pointBytes)
		if len(c.sent) != 0 {
			t.Fatalf("%s: chooser sent %d frames after a bad A", name, len(c.sent))
		}
	}
	for _, n := range []int{0, kappa*pointBytes - 1, kappa*pointBytes + 1} {
		name := fmt.Sprintf("B of %d bytes", n)
		b := append(validB(), 0)[:n]
		var c *scripted
		err := noPanic(t, name, func() (err error) { c, err = sender(frame(b)); return })
		wantSize(name, err, "base B", n, kappa*pointBytes)
		if len(c.sent) != 1 {
			t.Fatalf("%s: base sender sent %d frames, want only A", name, len(c.sent))
		}
	}
	const at = 77
	for why, p := range badPoints() {
		var c *scripted
		err := noPanic(t, "A "+why, func() (err error) { c, err = chooser(p); return })
		if err == nil || !strings.Contains(err.Error(), "point A") || len(c.sent) != 0 {
			t.Fatalf("A %s: error %v after %d frames, want a point-A error and none", why, err, len(c.sent))
		}
		b := validB()
		copy(b[at*pointBytes:], p)
		err = noPanic(t, "B "+why, func() (err error) { c, err = sender(frame(b)); return })
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("base OT %d:", at)) || len(c.sent) != 1 {
			t.Fatalf("B_%d %s: error %v after %d frames, want one naming OT %d and only A sent", at, why, err, len(c.sent), at)
		}
	}

	echoA := func(sent [][]byte) []byte {
		b := validB()
		copy(b[5*pointBytes:], sent[0])
		return b
	}
	var c *scripted
	if err := noPanic(t, "B_5 = A", func() (err error) { c, err = sender(echoA); return }); err != nil || len(c.sent) != 1 {
		t.Fatalf("B_5 = A: error %v after %d frames, want a completed OT", err, len(c.sent))
	}
}

// FuzzBaseOTPeer feeds arbitrary bytes to both roles — as the A flight to
// the chooser, as the B flight to the base sender. Every run ends in an
// error or a completed OT, never a panic, and a role sends nothing after a
// flight it rejected.
func FuzzBaseOTPeer(f *testing.F) {
	g, b := compressed(1), validB()
	f.Add(g)
	f.Add(b)
	f.Add(bytes.Repeat(g, kappa))
	f.Add(make([]byte, kappa*pointBytes))
	f.Add(g[:pointBytes-1])
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var choices Message
		copy(choices[:], data)
		c := &scripted{script: []func([][]byte) []byte{frame(data)}}
		_, err := baseReceive(c, choices, newSeeded(62))
		want := 1
		if err != nil {
			want = 0
		}
		if len(c.sent) != want {
			t.Fatalf("chooser: error %v after %d frames, want %d", err, len(c.sent), want)
		}
		c = &scripted{script: []func([][]byte) []byte{frame(data)}}
		if _, err := baseSend(c, newSeeded(63)); len(c.sent) != 1 {
			t.Fatalf("base sender: error %v after %d frames, want only A", err, len(c.sent))
		}
	})
}
