package ot

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
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
// hash its y frames are (z, z ⊕ t) of the kernel's t and z frames, the
// bijection the correlated answer rests on, so either side of a kernel pair
// could be the reference implementation.
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
				if eq := bytes.Equal(uncorrelate(ks.sent[2*i], ks.sent[2*i+1]), os.sent[i]); eq != h.sameY {
					t.Fatalf("%s resumed=%v batch %d: (z, z ⊕ t) equals the oracle's y frame: %v, want %v", h.name, nonce != nil, i, eq, h.sameY)
				}
			}
		}
	}
}

// uncorrelate maps a chosen OT's t and z frames to the y frame of the
// uncorrelated answer: y_j^0 = z_j, y_j^1 = z_j ⊕ t_j.
func uncorrelate(tf, zf []byte) []byte {
	var y []byte
	for j := 0; j < len(zf); j += KeySize {
		z := zf[j : j+KeySize]
		y = append(append(y, z...), z...)
		subtle.XORBytes(y[len(y)-KeySize:], z, tf[j:j+KeySize])
	}
	return y
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

// TestPoisonedEndpoints: a u, t, d or z frame of the wrong size — one byte
// short, one long, empty — in a chosen, a rows-as-labels or an answered
// batch is a typed *FrameSizeError raised before any scratch is indexed
// (the warm-up batch is smaller than the damaged one, so nothing sized by
// it could hold the batch), and it poisons the endpoint: every later call,
// empty batches included, returns the same error without touching the
// connection.
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
	// Which endpoint receives each frame, and which of its received frames
	// is the damaged batch's. A chosen batch's receiver gets t and z of the
	// warm-up first, and a rows batch's sender its u. An answered batch
	// is made after the warm-up's (two u frames), whose d and z come first.
	frames := []struct {
		name, kind string
		bySend     bool
		n, want    int
	}{
		{"u", "chosen", true, 2, kappa * ((m + 7) / 8)},
		{"t", "chosen", false, 3, KeySize * m},
		{"z", "chosen", false, 4, KeySize * m},
		{"u", "rows", true, 2, kappa * ((m + 7) / 8)},
		{"d", "answered", true, 4, (m + 7) / 8},
		{"z", "answered", false, 2, KeySize * m},
	}
	for name, cut := range cuts {
		for _, fr := range frames {
			row := fmt.Sprintf("%s %s (%s)", name, fr.name, fr.kind)
			a, b := transport.Pipe()
			sc, rc := &cutConn{MsgConn: a, cut: cut}, &cutConn{MsgConn: b, cut: cut}
			if fr.bySend {
				sc.n = fr.n
			} else {
				rc.n = fr.n
			}
			s, err := ResumeSender(sc, ss, []byte(row))
			if err != nil {
				t.Fatal(err)
			}
			r, err := ResumeReceiver(rc, rs, []byte(row))
			if err != nil {
				t.Fatal(err)
			}

			pairs, choices := randomPairs(rng, m), randomChoices(rng, m)
			sendErr, recvErr := make(chan error, 1), make(chan error, 1)
			warmPairs, warmChoices := randomPairs(rng, warm), randomChoices(rng, warm)
			switch fr.kind {
			case "rows":
				runRows(t, s, r, warmChoices)
				go func() { _, err := s.ReceivePads(m); sendErr <- err }()
				go func() { _, err := r.SendChoices(choices); recvErr <- err }()
			case "chosen":
				runBatch(t, s, r, warmPairs, warmChoices)
				go func() { sendErr <- s.Send(pairs) }()
				go func() { _, err := r.Receive(choices); recvErr <- err }()
			default:
				w, bt := precompute(t, s, r, warm, 1), precompute(t, s, r, m, 2)
				runPrecomputed(t, s, r, w, warmChoices)
				go func() { sendErr <- s.SendPrecomputed(bt.sb, bt.y) }()
				go func() { _, err := r.ReceivePrecomputed(bt.rb, choices); recvErr <- err }()
			}
			var first error
			if fr.bySend {
				// The sender fails and answers nothing; a receiver that
				// waits for an answer is released by closing the link, and
				// is poisoned by that.
				first = <-sendErr
				a.Close()
				if err := <-recvErr; err == nil && fr.kind != "rows" {
					t.Fatalf("%s: receiver returned labels without an answer", row)
				}
			} else {
				first = <-recvErr
				if err := <-sendErr; err != nil {
					t.Fatal(err)
				}
			}
			var fe *FrameSizeError
			if !errors.As(first, &fe) || fe.Frame != fr.name || fe.Want != fr.want || fe.Got == fr.want {
				t.Fatalf("%s: error %v, want a FrameSizeError for %d bytes", row, first, fr.want)
			}

			sent, recvd := a.SentBytes()+b.SentBytes(), a.RecvBytes()+b.RecvBytes()
			for _, k := range []int{0, 5} {
				var again []error
				if fr.bySend {
					_, _, err1 := offer(s, randomPads(k, 3))
					_, err2 := s.ReceivePads(k)
					again = append(again, s.Send(randomPairs(rng, k)), err1, err2,
						s.SendPrecomputed(&SenderPads{m: k, state: batchBound}, make([]byte, KeySize*k)))
				} else {
					_, err1 := r.Receive(randomChoices(rng, k))
					_, err2 := openRandom(r, k, 3)
					_, err3 := r.ReceivePrecomputed(&ReceiverPads{c: make([]byte, (k+7)/8), k: make([]Message, k)}, randomChoices(rng, k))
					again = append(again, err1, err2, err3)
				}
				for i, err := range again {
					if err != first {
						t.Fatalf("%s: call %d on a batch of %d after the failure returned %v, want the first error", row, i, k, err)
					}
				}
			}
			if a.SentBytes()+b.SentBytes() != sent || a.RecvBytes()+b.RecvBytes() != recvd {
				t.Fatalf("%s: a poisoned endpoint moved bytes", row)
			}
		}
	}
}

// randomPads draws m one-time pads, 16 bytes each, from a stream seeded
// with seed.
func randomPads(m int, seed int64) []byte {
	y := make([]byte, KeySize*m)
	rand.New(rand.NewSource(seed)).Read(y)
	return y
}

// offer is the sender's half of a bound batch: ReceivePads, then Bind on
// the pads y. It returns the batch and its zero labels.
func offer(s *ExtSender, y []byte) (*SenderPads, []Message, error) {
	b, err := s.ReceivePads(len(y) / KeySize)
	if err != nil {
		return b, nil, err
	}
	x0, err := b.Bind(y)
	return b, x0, err
}

// openRandom is offer's receiver side on m choice bits drawn from a stream
// seeded with seed.
func openRandom(r *ExtReceiver, m int, seed int64) (*ReceiverPads, error) {
	return r.SendChoices(randomChoices(rand.New(rand.NewSource(seed)), m))
}

// boundBatch is one bound batch on both endpoints: the sender's batch, its
// pads and zero labels, and the receiver's batch.
type boundBatch struct {
	sb *SenderPads
	y  []byte
	x0 []Message
	rb *ReceiverPads
}

// precompute runs one bound batch of m random OTs on both endpoints, its
// pads and the receiver's choice bits drawn from streams seeded with seed.
func precompute(t *testing.T, s *ExtSender, r *ExtReceiver, m int, seed int64) boundBatch {
	t.Helper()
	y := randomPads(m, seed)
	type res struct {
		b   *SenderPads
		x0  []Message
		err error
	}
	ch := make(chan res, 1)
	go func() { b, x0, err := offer(s, y); ch <- res{b, x0, err} }()
	rb, err := openRandom(r, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	sr := <-ch
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	return boundBatch{sb: sr.b, y: y, x0: sr.x0, rb: rb}
}

// runPrecomputed runs a bound batch's online legs for the choices a on a
// copy of its pads, which the answer overwrites, and checks that the
// receiver opens x0 ⊕ a·s.
func runPrecomputed(t *testing.T, s *ExtSender, r *ExtReceiver, bt boundBatch, choices []bool) []Message {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- s.SendPrecomputed(bt.sb, bytes.Clone(bt.y)) }()
	got, err := r.ReceivePrecomputed(bt.rb, choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	checkLabels(t, s.Delta(), bt.x0, choices, got)
	return got
}

// checkLabels checks that got[j] is the label x0_j ⊕ c_j·delta of every
// choice c_j.
func checkLabels(t *testing.T, delta Message, x0 []Message, choices []bool, got []Message) {
	t.Helper()
	for j, c := range choices {
		want := x0[j]
		if c {
			xor(&want, &want, &delta)
		}
		if got[j] != want {
			t.Fatalf("OT %d of %d (choice %v): got another label than x0 ⊕ c·s", j, len(choices), c)
		}
	}
}

// TestRandomOTMatchesChosen: random OTs made ahead of use, bound to pads y
// and derandomized online deliver x0 ⊕ a·s for random choices a, fresh and
// resumed, over batch sizes on both sides of a byte boundary up to a
// demo-CNN layer. A chosen-OT pair on the same base-OT state, run through
// the same batches on the random OTs' choices c, is the oracle: the u
// frames are equal, the chosen OT's
// pad m0 = z_j ⊕ x_j^0 is the hash of the random OT's row x0 ⊕ y under the
// same OT index, and the z frame is y ⊕ d·s for d = a ⊕ c. A bound sender
// batch keeps nothing, and each batch is answered once.
func TestRandomOTMatchesChosen(t *testing.T) {
	s0, r0 := setupExtension(t)
	ss, rs := s0.State(), r0.State()
	h := kernelHash()
	for _, nonce := range [][]byte{nil, []byte("random-vs-chosen")} {
		pair := func() (*ExtSender, *ExtReceiver, *frames, *frames) {
			a, b := transport.Pipe()
			fa, fb := &frames{MsgConn: a}, &frames{MsgConn: b}
			if nonce == nil {
				s, r := masterPair(fa, fb, ss, rs)
				return s, r, fa, fb
			}
			s, r := resumePair(t, ss, rs, nonce)
			s.conn, r.conn = fa, fb
			return s, r, fa, fb
		}
		cs, cr, csf, crf := pair()
		ps, pr, psf, prf := pair()
		rng := rand.New(rand.NewSource(55))
		var index uint64
		for i, m := range []int{1, 7, 8, 9, 2560, 5120} {
			// The chosen OT runs on the random OT's choices c; a is online's.
			pairs, c, choices := randomPairs(rng, m), randomChoices(rand.New(rand.NewSource(int64(i))), m), randomChoices(rng, m)
			runBatch(t, cs, cr, pairs, c)
			bt := precompute(t, ps, pr, m, int64(i))
			if bt.sb.SizeBytes() != 0 || bt.rb.SizeBytes() != uint64(KeySize*m+(m+7)/8) {
				t.Fatalf("m=%d: bound batches report %d and %d bytes", m, bt.sb.SizeBytes(), bt.rb.SizeBytes())
			}
			runPrecomputed(t, ps, pr, bt, choices)
			if !bytes.Equal(prf.sent[2*i], crf.sent[i]) {
				t.Fatalf("resumed=%v m=%d: u frame differs from the chosen OT's", nonce != nil, m)
			}
			zf := csf.sent[2*i+1]
			d := pack(choices)
			subtle.XORBytes(d, d, bt.rb.c)
			delta := ps.Delta()
			for j := range m {
				var q, m0, z Message
				xor(&q, &bt.x0[j], (*Message)(bt.y[KeySize*j:]))
				xor(&m0, (*Message)(zf[KeySize*j:]), &pairs[j][0])
				if h(index+uint64(j), q) != m0 {
					t.Fatalf("resumed=%v m=%d OT %d: the row is not the chosen OT's pad before the hash", nonce != nil, m, j)
				}
				if z = *(*Message)(bt.y[KeySize*j:]); bit(d, j) {
					xor(&z, &z, &delta)
				}
				if z != *(*Message)(psf.sent[i][KeySize*j:]) {
					t.Fatalf("resumed=%v m=%d OT %d: z is not y ⊕ d·s", nonce != nil, m, j)
				}
			}
			index += uint64(m)
			// Spent batches, on a link that refuses every frame, so a second
			// answer that is not refused fails at once.
			cut, sc, rc := &cutLink{}, ps.conn, pr.conn
			ps.conn, pr.conn = cut, cut
			errS := ps.SendPrecomputed(bt.sb, bt.y)
			_, errR := pr.ReceivePrecomputed(bt.rb, choices)
			ps.conn, pr.conn = sc, rc
			if errS == nil || errR == nil || cut.tries != 0 {
				t.Fatalf("m=%d: a spent batch was answered again: %v, %v after %d frames tried", m, errS, errR, cut.tries)
			}
		}
	}
}

// TestPrecomputedAllocs gates the online leg of a precomputed batch — the
// receiver's d frame, the sender's answer and the two frames in flight — at
// a constant, whatever the batch size: nothing is allocated per OT.
func TestPrecomputedAllocs(t *testing.T) {
	s, r := setupExtension(t)
	ab, ba := make(chan []byte, 1), make(chan []byte, 1)
	s.conn, r.conn = chanConn{in: ba, out: ab}, chanConn{in: ab, out: ba}
	batches := make(chan boundBatch)
	errs := make(chan error)
	go func() {
		for bt := range batches {
			errs <- s.SendPrecomputed(bt.sb, bt.y)
		}
	}()
	defer close(batches)
	rng := rand.New(rand.NewSource(56))
	const runs = 10
	var counts []float64
	for _, m := range []int{2560, 64, 512, 2560} { // the first warms the runtime
		// AllocsPerRun calls its function runs+1 times, each on a fresh batch.
		bts := make([]boundBatch, runs+1)
		for i := range bts {
			bts[i] = precompute(t, s, r, m, int64(i))
		}
		choices, i := randomChoices(rng, m), 0
		counts = append(counts, testing.AllocsPerRun(runs, func() {
			batches <- bts[i]
			if _, err := r.ReceivePrecomputed(bts[i].rb, choices); err != nil {
				t.Error(err)
			}
			if err := <-errs; err != nil {
				t.Error(err)
			}
			i++
		}))
	}
	for _, n := range counts[1:] {
		if n > 4 || n != counts[1] {
			t.Fatalf("allocs per online leg at m=64, 512, 2560: %v, want equal and at most 4", counts[1:])
		}
	}
}
