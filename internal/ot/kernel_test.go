package ot

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"privinf/internal/garble"
	"privinf/internal/transport"
)

// randomRows draws a kappa × ⌈m/8⌉ bit matrix, flat (the kernel's layout)
// and as one slice per row (the oracle's) over the same bytes.
func randomRows(rng *rand.Rand, m int) ([]byte, [][]byte) {
	mBytes := (m + 7) / 8
	flat := make([]byte, kappa*mBytes)
	rng.Read(flat)
	rows := make([][]byte, kappa)
	for i := range rows {
		rows[i] = flat[i*mBytes : (i+1)*mBytes]
	}
	return flat, rows
}

// transposeDirty runs the kernel transpose into a destination full of ones.
func transposeDirty(flat []byte, m int) []Message {
	dst := make([]Message, m)
	for j := range dst {
		for b := range dst[j] {
			dst[j][b] = 0xFF
		}
	}
	transpose(dst, flat, (m+7)/8)
	return dst
}

func equalMessages(a, b []Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTransposeMatchesOracle: the tiled transpose equals the bit-at-a-time
// one on both sides of every byte and tile boundary, overwriting whatever the
// destination held (a partial last tile must not leave or spill a bit).
func TestTransposeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, m := range []int{1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1000, 2560, 5123, 7680} {
		flat, rows := randomRows(rng, m)
		if !equalMessages(transposeDirty(flat, m), transposeToBlocks(rows, m)) {
			t.Errorf("m=%d: tiled transpose differs from the oracle", m)
		}
	}
}

func TestTransposeProperty(t *testing.T) {
	prop := func(size uint16, seed int64) bool {
		m := int(size%3000) + 1
		flat, rows := randomRows(rand.New(rand.NewSource(seed)), m)
		return equalMessages(transposeDirty(flat, m), transposeToBlocks(rows, m))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTranspose8x8: every single bit (row k, column b) lands at (row b,
// column k), and a full random tile transposes bit for bit.
func TestTranspose8x8(t *testing.T) {
	at := func(x uint64, row, col int) uint64 { return x >> (8*row + col) & 1 }
	for k := 0; k < 8; k++ {
		for b := 0; b < 8; b++ {
			if got, want := transpose8x8(1<<(8*k+b)), uint64(1)<<(8*b+k); got != want {
				t.Fatalf("bit (%d,%d): got %#016x, want %#016x", k, b, got, want)
			}
		}
	}
	x := rand.New(rand.NewSource(51)).Uint64()
	y := transpose8x8(x)
	for k := 0; k < 8; k++ {
		for b := 0; b < 8; b++ {
			if at(x, k, b) != at(y, b, k) {
				t.Fatalf("random tile: bit (%d,%d) not transposed", k, b)
			}
		}
	}
	if transpose8x8(y) != x {
		t.Fatal("transpose8x8 is not an involution")
	}
}

// frames keeps a copy of every frame an endpoint sends.
type frames struct {
	transport.MsgConn
	sent [][]byte
}

func (f *frames) Send(p []byte) error {
	f.sent = append(f.sent, append([]byte(nil), p...))
	return f.MsgConn.Send(p)
}

// sender and receiver are what the kernel and the oracle endpoints share.
type sender interface{ Send([][2]Message) error }
type receiver interface {
	Receive([]bool) ([]Message, error)
}

func runBatch(t *testing.T, s sender, r receiver, pairs [][2]Message, choices []bool) []Message {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- s.Send(pairs) }()
	got, err := r.Receive(choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	checkTransfer(t, pairs, choices, got)
	return got
}

// kernelHash is the extension's hash in the oracle's signature.
func kernelHash() func(uint64, Message) Message {
	h := garble.NewHasher()
	return func(index uint64, row Message) Message { return h.Hash(row, otTweak|index) }
}

// TestKernelMatchesOracle runs the kernel endpoints and the pre-kernel
// reference side by side on one base-OT outcome, fresh and resumed, through
// batches that grow and then shrink on the same endpoints (nothing of a
// large batch may leak into a small one after it). The u frames and the delivered
// messages are identical whatever the hash; with the oracle on the kernel's
// hash the y frames are too, so either side of a kernel pair could be the
// reference implementation.
func TestKernelMatchesOracle(t *testing.T) {
	s0, r0 := setupExtension(t)
	ss, rs := s0.State(), r0.State()
	hashes := []struct {
		name  string
		hash  func(uint64, Message) Message
		sameY bool
	}{{"sha256", sha256Hash, false}, {"fixed-key aes", kernelHash(), true}}
	for _, nonce := range [][]byte{nil, []byte("kernel-vs-oracle")} {
		for _, h := range hashes {
			ka, kb := transport.Pipe()
			ks, kr := &frames{MsgConn: ka}, &frames{MsgConn: kb}
			s, r := masterPair(ks, kr, ss, rs)
			if nonce != nil {
				var err error
				if s, err = ResumeSender(ks, ss, nonce); err != nil {
					t.Fatal(err)
				}
				if r, err = ResumeReceiver(kr, rs, nonce); err != nil {
					t.Fatal(err)
				}
			}
			oa, ob := transport.Pipe()
			os, or := &frames{MsgConn: oa}, &frames{MsgConn: ob}
			oracleS, oracleR := newOracles(os, or, ss, rs, nonce, h.hash)

			rng := rand.New(rand.NewSource(52))
			for _, m := range []int{1, 9, 130, 2560, 5123, 64, 7} {
				pairs, choices := randomPairs(rng, m), randomChoices(rng, m)
				got := runBatch(t, s, r, pairs, choices)
				want := runBatch(t, oracleS, oracleR, pairs, choices)
				if !equalMessages(got, want) {
					t.Fatalf("%s resumed=%v m=%d: delivered messages differ from the oracle's", h.name, nonce != nil, m)
				}
			}
			for i := range kr.sent {
				if !bytes.Equal(kr.sent[i], or.sent[i]) {
					t.Fatalf("%s resumed=%v batch %d: u frame differs from the oracle's", h.name, nonce != nil, i)
				}
				if eq := bytes.Equal(ks.sent[i], os.sent[i]); eq != h.sameY {
					t.Fatalf("%s resumed=%v batch %d: y frames equal=%v, want %v", h.name, nonce != nil, i, eq, h.sameY)
				}
			}
		}
	}
}

// chanConn is a MsgConn whose only allocation is the copy of each frame it
// carries, so an allocation count over it is the extension's own plus two.
type chanConn struct {
	transport.MsgConn // counters unused
	in, out           chan []byte
}

func (c chanConn) Send(p []byte) error   { c.out <- append([]byte(nil), p...); return nil }
func (c chanConn) Recv() ([]byte, error) { return <-c.in, nil }

// TestExtensionAllocs gates a round's allocations — the two frames in flight,
// the receiver's result and each side's per-batch buffers — at a constant,
// whatever the batch size: nothing is allocated per OT.
func TestExtensionAllocs(t *testing.T) {
	s, r := setupExtension(t)
	ab, ba := make(chan []byte, 1), make(chan []byte, 1)
	s.conn, r.conn = chanConn{in: ba, out: ab}, chanConn{in: ab, out: ba}
	batches := make(chan [][2]Message)
	errs := make(chan error)
	go func() {
		for p := range batches {
			errs <- s.Send(p)
		}
	}()
	defer close(batches)
	rng := rand.New(rand.NewSource(53))
	var counts []float64
	for _, m := range []int{2560, 64, 512, 2560} { // the first warms the runtime
		pairs, choices := randomPairs(rng, m), randomChoices(rng, m)
		counts = append(counts, testing.AllocsPerRun(10, func() {
			batches <- pairs
			if _, err := r.Receive(choices); err != nil {
				t.Error(err)
			}
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}))
	}
	for _, n := range counts[1:] {
		if n > 16 || n != counts[1] {
			t.Fatalf("allocs per Send+Receive round at m=64, 512, 2560: %v, want equal and at most 16", counts[1:])
		}
	}
}

// cutConn damages the n-th frame its endpoint receives.
type cutConn struct {
	transport.MsgConn
	n   int
	cut func([]byte) []byte
}

func (c *cutConn) Recv() ([]byte, error) {
	p, err := c.MsgConn.Recv()
	if c.n--; c.n == 0 && err == nil {
		p = c.cut(p)
	}
	return p, err
}

// TestPoisonedEndpoints: a u or y frame of the wrong size — one byte short,
// one long, empty — is a typed *FrameSizeError raised before any scratch is
// indexed (the warm-up batch is smaller than the damaged one, so nothing
// sized by it could hold the batch), and it poisons the endpoint: every later call, empty batches
// included, returns the same error without touching the connection.
func TestPoisonedEndpoints(t *testing.T) {
	cuts := map[string]func([]byte) []byte{
		"one byte short": func(p []byte) []byte { return p[:len(p)-1] },
		"one byte long":  func(p []byte) []byte { return append(p, 0) },
		"empty":          func(p []byte) []byte { return nil },
	}
	s0, r0 := setupExtension(t)
	ss, rs := s0.State(), r0.State()
	rng := rand.New(rand.NewSource(54))
	const warm, m = 40, 300
	for name, cut := range cuts {
		for _, frame := range []string{"u", "y"} {
			a, b := transport.Pipe()
			// Each endpoint's second received frame is the damaged batch's.
			sc, rc := &cutConn{MsgConn: a, cut: cut}, &cutConn{MsgConn: b, cut: cut}
			if frame == "u" {
				sc.n = 2
			} else {
				rc.n = 2
			}
			s, err := ResumeSender(sc, ss, []byte(name+frame))
			if err != nil {
				t.Fatal(err)
			}
			r, err := ResumeReceiver(rc, rs, []byte(name+frame))
			if err != nil {
				t.Fatal(err)
			}
			runBatch(t, s, r, randomPairs(rng, warm), randomChoices(rng, warm))

			pairs, choices := randomPairs(rng, m), randomChoices(rng, m)
			sendErr, recvErr := make(chan error, 1), make(chan error, 1)
			go func() { sendErr <- s.Send(pairs) }()
			go func() { _, err := r.Receive(choices); recvErr <- err }()
			var first error
			if frame == "u" {
				// The sender fails and answers nothing; the receiver is
				// released by closing the link, and is poisoned by that.
				first = <-sendErr
				a.Close()
				if err := <-recvErr; err == nil {
					t.Fatalf("%s u: receiver returned labels without a y frame", name)
				}
			} else {
				first = <-recvErr
				if err := <-sendErr; err != nil {
					t.Fatal(err)
				}
			}
			var fe *FrameSizeError
			want := map[string]int{"u": kappa * ((m + 7) / 8), "y": 2 * KeySize * m}[frame]
			if !errors.As(first, &fe) || fe.Frame != frame || fe.Want != want || fe.Got == want {
				t.Fatalf("%s %s: error %v, want a FrameSizeError for %d bytes", name, frame, first, want)
			}

			sent, recvd := a.SentBytes()+b.SentBytes(), a.RecvBytes()+b.RecvBytes()
			for _, k := range []int{0, 5, 0} {
				var again error
				if frame == "u" {
					again = s.Send(randomPairs(rng, k))
				} else {
					_, again = r.Receive(randomChoices(rng, k))
				}
				if again != first {
					t.Fatalf("%s %s: batch of %d after the failure returned %v, want the first error", name, frame, k, again)
				}
			}
			if a.SentBytes()+b.SentBytes() != sent || a.RecvBytes()+b.RecvBytes() != recvd {
				t.Fatalf("%s %s: a poisoned endpoint moved bytes", name, frame)
			}
		}
	}
}
