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
// short, one long, empty — in a chosen, a precomputed or a pads-then-offsets
// batch is a typed
// *FrameSizeError raised before any scratch is indexed (the warm-up batch is
// smaller than the damaged one, so nothing sized by it could hold the
// batch), and it poisons the endpoint: every later call, empty batches
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
	// Which endpoint receives each frame, and which of its received frames
	// is the damaged batch's. A chosen batch's receiver gets t and z of the
	// warm-up first. A precomputed damaged batch follows a whole warm-up
	// batch for its t frame; for its online frames both batches are
	// extended first (two u and two t frames), then the warm-up's d and z.
	// A pads batch's u and t follow the warm-up batch's.
	frames := []struct {
		name      string
		pre, pads bool
		bySend    bool
		n, want   int
	}{
		{"u", false, false, true, 2, kappa * ((m + 7) / 8)},
		{"t", false, false, false, 3, KeySize * m},
		{"z", false, false, false, 4, KeySize * m},
		{"t", true, false, false, 3, KeySize * m},
		{"d", true, false, true, 4, (m + 7) / 8},
		{"z", true, false, false, 4, KeySize * m},
		{"u", false, true, true, 2, kappa * ((m + 7) / 8)},
		{"t", false, true, false, 2, KeySize * m},
	}
	for name, cut := range cuts {
		for _, fr := range frames {
			row := fmt.Sprintf("%s %s (precomputed %v, pads %v)", name, fr.name, fr.pre, fr.pads)
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
			switch {
			case fr.pads:
				runPads(t, s, r, warmChoices, offsets(warmPairs), 1)
				go func() {
					b, err := s.ReceivePads(m)
					if err == nil {
						err = s.SendOffsets(b, nil, offsets(pairs), 1)
					}
					sendErr <- err
				}()
				go func() {
					b, err := r.SendChoices(choices)
					if err == nil {
						_, err = r.ReceiveOffsets(b)
					}
					recvErr <- err
				}()
			case !fr.pre:
				runBatch(t, s, r, warmPairs, warmChoices)
				go func() { sendErr <- s.Send(pairs) }()
				go func() { _, err := r.Receive(choices); recvErr <- err }()
			case fr.name == "t":
				sw, rw := precompute(t, s, r, warmPairs, 1)
				runPrecomputed(t, s, r, sw, rw, warmPairs, warmChoices)
				go func() { _, err := offer(s, pairs); sendErr <- err }()
				go func() { _, err := openRandom(r, m, 2); recvErr <- err }()
			default:
				sw, rw := precompute(t, s, r, warmPairs, 1)
				sb, rb := precompute(t, s, r, pairs, 2)
				runPrecomputed(t, s, r, sw, rw, warmPairs, warmChoices)
				go func() { sendErr <- s.SendPrecomputed(sb) }()
				go func() { _, err := r.ReceivePrecomputed(rb, choices); recvErr <- err }()
			}
			var first error
			if fr.bySend {
				// The sender fails and answers nothing; the receiver is
				// released by closing the link, and is poisoned by that.
				first = <-sendErr
				a.Close()
				if err := <-recvErr; err == nil {
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
					pairs := randomPairs(rng, k)
					_, err := offer(s, pairs)
					_, err2 := s.ReceivePads(k)
					again = append(again, s.Send(pairs), err,
						s.SendPrecomputed(&SenderPads{pads: make([]Message, k), delta: offsets(pairs), per: 1, state: batchBound}), err2,
						s.SendOffsets(&SenderPads{pads: make([]Message, 2*k), t: make([]byte, KeySize*k)}, nil, offsets(pairs), 1))
				} else {
					_, err1 := r.Receive(randomChoices(rng, k))
					_, err2 := openRandom(r, k, 3)
					_, err3 := r.ReceivePrecomputed(&ReceiverPads{c: make([]byte, (k+7)/8), k: make([]Message, k), state: batchOffered}, randomChoices(rng, k))
					_, err4 := r.SendChoices(randomChoices(rng, k))
					_, err5 := r.ReceiveOffsets(&ReceiverPads{c: make([]byte, (k+7)/8), k: make([]Message, k)})
					again = append(again, err1, err2, err3, err4, err5)
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

// offsets lists each pair's offset x0 ⊕ x1, the one group per OT that
// unrelated random pairs need.
func offsets(pairs [][2]Message) []Message {
	delta := make([]Message, len(pairs))
	for j, p := range pairs {
		xor(&delta[j], &p[0], &p[1])
	}
	return delta
}

// zeroLabels lists each pair's zero message x0.
func zeroLabels(pairs [][2]Message) []Message {
	x0 := make([]Message, len(pairs))
	for j, p := range pairs {
		x0[j] = p[0]
	}
	return x0
}

// offer is the sender's half of a batch bound to pairs, one group an OT:
// ReceivePads, then SendOffsets on the pairs' zero messages.
func offer(s *ExtSender, pairs [][2]Message) (*SenderPads, error) {
	b, err := s.ReceivePads(len(pairs))
	if err != nil {
		return b, err
	}
	return b, s.SendOffsets(b, zeroLabels(pairs), offsets(pairs), 1)
}

// openRandom is offer's receiver side on m choice bits drawn from a stream
// seeded with seed: SendChoices, then ReceiveOffsets.
func openRandom(r *ExtReceiver, m int, seed int64) (*ReceiverPads, error) {
	b, err := r.SendChoices(randomChoices(rand.New(rand.NewSource(seed)), m))
	if err != nil {
		return b, err
	}
	_, err = r.ReceiveOffsets(b)
	return b, err
}

// precompute runs one batch of random OTs bound to pairs on both endpoints,
// the receiver's choice bits drawn from a stream seeded with seed.
func precompute(t *testing.T, s *ExtSender, r *ExtReceiver, pairs [][2]Message, seed int64) (*SenderPads, *ReceiverPads) {
	t.Helper()
	type res struct {
		b   *SenderPads
		err error
	}
	ch := make(chan res, 1)
	go func() { b, err := offer(s, pairs); ch <- res{b, err} }()
	rb, err := openRandom(r, len(pairs), seed)
	if err != nil {
		t.Fatal(err)
	}
	sb := <-ch
	if sb.err != nil {
		t.Fatal(sb.err)
	}
	return sb.b, rb
}

// runPrecomputed runs a batch's online legs and checks the transfer.
func runPrecomputed(t *testing.T, s *ExtSender, r *ExtReceiver, sb *SenderPads, rb *ReceiverPads, pairs [][2]Message, choices []bool) []Message {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- s.SendPrecomputed(sb) }()
	got, err := r.ReceivePrecomputed(rb, choices)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	checkTransfer(t, pairs, choices, got)
	return got
}

// TestRandomOTMatchesChosen: random OTs made ahead of use and derandomized
// online deliver pairs[j][a_j] for random choices a, fresh and resumed, over
// batch sizes on both sides of a byte boundary up to a demo-CNN layer. A
// chosen-OT pair on the same base-OT states, run through the same batches,
// is the oracle, byte for byte: the t frames are equal, since t_j = Δ_j ⊕
// m0 ⊕ m1 does not depend on which pad the choice bit selects, and the
// z frames differ by d·t, since d = a ⊕ c swaps the two pads where a and c
// differ.
func TestRandomOTMatchesChosen(t *testing.T) {
	ss, rs := goldenStates(t)
	for _, nonce := range [][]byte{nil, []byte("random-vs-chosen")} {
		pair := func() (*ExtSender, *ExtReceiver, *frames) {
			a, b := transport.Pipe()
			fa := &frames{MsgConn: a}
			if nonce == nil {
				s, r := masterPair(fa, b, ss, rs)
				return s, r, fa
			}
			s, err := ResumeSender(fa, ss, nonce)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ResumeReceiver(b, rs, nonce)
			if err != nil {
				t.Fatal(err)
			}
			return s, r, fa
		}
		cs, cr, cf := pair()
		ps, pr, pf := pair()
		rng := rand.New(rand.NewSource(55))
		for i, m := range []int{1, 7, 8, 9, 2560, 5120} {
			pairs, choices := randomPairs(rng, m), randomChoices(rng, m)
			want := runBatch(t, cs, cr, pairs, choices)
			sb, rb := precompute(t, ps, pr, pairs, int64(i))
			got := runPrecomputed(t, ps, pr, sb, rb, pairs, choices)
			if !equalMessages(got, want) {
				t.Fatalf("resumed=%v m=%d: random OT delivered other messages than chosen OT", nonce != nil, m)
			}
			tf, zf := cf.sent[2*i], cf.sent[2*i+1]
			if !bytes.Equal(pf.sent[2*i], tf) {
				t.Fatalf("resumed=%v m=%d: t frame differs from the chosen OT's", nonce != nil, m)
			}
			d := pack(choices)
			subtle.XORBytes(d, d, rb.c)
			wantZ := bytes.Clone(zf)
			for j := range m {
				if bit(d, j) {
					zj := wantZ[KeySize*j : KeySize*(j+1)]
					subtle.XORBytes(zj, zj, tf[KeySize*j:])
				}
			}
			if !bytes.Equal(pf.sent[2*i+1], wantZ) {
				t.Fatalf("resumed=%v m=%d: z frame is not the chosen OT's z ⊕ d·t", nonce != nil, m)
			}
			if rb.SizeBytes() != uint64(KeySize*m+(m+7)/8) || sb.SizeBytes() != uint64(2*KeySize*m) {
				t.Fatalf("m=%d: batches report %d and %d bytes", m, sb.SizeBytes(), rb.SizeBytes())
			}
			if err := ps.SendPrecomputed(sb); err == nil {
				t.Fatalf("m=%d: a spent batch was sent again: %v", m, err)
			}
			if _, err := pr.ReceivePrecomputed(rb, choices); err == nil {
				t.Fatalf("m=%d: a spent batch was received again: %v", m, err)
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
	batches := make(chan *SenderPads)
	errs := make(chan error)
	go func() {
		for b := range batches {
			errs <- s.SendPrecomputed(b)
		}
	}()
	defer close(batches)
	rng := rand.New(rand.NewSource(56))
	const runs = 10
	var counts []float64
	for _, m := range []int{2560, 64, 512, 2560} { // the first warms the runtime
		// AllocsPerRun calls its function runs+1 times, each on a fresh batch.
		sbs, rbs := make([]*SenderPads, runs+1), make([]*ReceiverPads, runs+1)
		for i := range sbs {
			sbs[i], rbs[i] = precompute(t, s, r, randomPairs(rng, m), int64(i))
		}
		choices, i := randomChoices(rng, m), 0
		counts = append(counts, testing.AllocsPerRun(runs, func() {
			batches <- sbs[i]
			if _, err := r.ReceivePrecomputed(rbs[i], choices); err != nil {
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
