package ot

import (
	"math/rand"
	"testing"

	"privinf/internal/transport"
)

type seededReader struct{ rng *rand.Rand }

func newSeeded(seed int64) *seededReader {
	return &seededReader{rng: rand.New(rand.NewSource(seed))}
}

func (s *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Intn(256))
	}
	return len(p), nil
}

func randomPairs(rng *rand.Rand, n int) [][2]Message {
	pairs := make([][2]Message, n)
	for i := range pairs {
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
	}
	return pairs
}

func randomChoices(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

func checkTransfer(t *testing.T, pairs [][2]Message, choices []bool, got []Message) {
	t.Helper()
	if len(got) != len(choices) {
		t.Fatalf("got %d messages, want %d", len(got), len(choices))
	}
	for i, c := range choices {
		want := pairs[i][0]
		if c {
			want = pairs[i][1]
		}
		if got[i] != want {
			t.Fatalf("OT %d (choice %v): wrong message", i, c)
		}
		other := pairs[i][1]
		if c {
			other = pairs[i][0]
		}
		if got[i] == other && pairs[i][0] != pairs[i][1] {
			t.Fatalf("OT %d: received the unchosen message", i)
		}
	}
}

// runBaseOT runs kappa random base OTs over a pipe, each party on its own
// seeded stream, and checks that OT i gave the chooser the base sender's
// seed that bit i of choices selects and never the other one.
func runBaseOT(t *testing.T, choices Message, sendSeed, recvSeed int64) {
	t.Helper()
	a, b := transport.Pipe()
	type sent struct {
		seeds [kappa][2]Message
		err   error
	}
	sCh := make(chan sent, 1)
	go func() {
		seeds, err := baseSend(a, newSeeded(sendSeed))
		sCh <- sent{seeds, err}
	}()
	got, err := baseReceive(b, choices, newSeeded(recvSeed))
	if err != nil {
		t.Fatal(err)
	}
	s := <-sCh
	if s.err != nil {
		t.Fatal(s.err)
	}
	bits := make([]bool, kappa)
	for i := range bits {
		bits[i] = bit(choices[:], i)
	}
	checkTransfer(t, s.seeds[:], bits, got[:])
}

func TestBaseOT(t *testing.T) {
	var choices Message
	rand.New(rand.NewSource(1)).Read(choices[:])
	runBaseOT(t, choices, 2, 3)
}

func TestBaseOTAllChoicePatterns(t *testing.T) {
	for _, fill := range []byte{0x00, 0xFF, 0x55} {
		var choices Message
		for i := range choices {
			choices[i] = fill
		}
		runBaseOT(t, choices, 5, 6)
	}
}

func setupExtension(t testing.TB) (*ExtSender, *ExtReceiver) {
	t.Helper()
	a, b := transport.Pipe()
	sCh := make(chan *ExtSender, 1)
	eCh := make(chan error, 1)
	go func() {
		s, err := NewExtSender(a, newSeeded(7))
		sCh <- s
		eCh <- err
	}()
	r, err := NewExtReceiver(b, newSeeded(8))
	if err != nil {
		t.Fatal(err)
	}
	s := <-sCh
	if err := <-eCh; err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestExtensionSmall(t *testing.T) {
	s, r := setupExtension(t)
	rng := rand.New(rand.NewSource(9))
	pairs := randomPairs(rng, 10)
	choices := randomChoices(rng, 10)

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
}

func TestExtensionLargeBatch(t *testing.T) {
	s, r := setupExtension(t)
	rng := rand.New(rand.NewSource(10))
	const n = 5000
	pairs := randomPairs(rng, n)
	choices := randomChoices(rng, n)

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
}

func TestExtensionMultipleBatches(t *testing.T) {
	// One base-OT setup must amortize over several extension rounds; the
	// PI protocol extends once per inference.
	s, r := setupExtension(t)
	rng := rand.New(rand.NewSource(11))
	for batch := 0; batch < 4; batch++ {
		n := 100 + batch*37 // deliberately not byte-aligned
		pairs := randomPairs(rng, n)
		choices := randomChoices(rng, n)
		errCh := make(chan error, 1)
		go func() { errCh <- s.Send(pairs) }()
		got, err := r.Receive(choices)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		checkTransfer(t, pairs, choices, got)
	}
}

func TestExtensionEmptyBatch(t *testing.T) {
	s, r := setupExtension(t)
	if err := s.Send(nil); err != nil {
		t.Fatal(err)
	}
	got, err := r.Receive(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("empty batch should return no messages")
	}
}

func TestExtensionCommunicationVolume(t *testing.T) {
	// Per OT, the receiver uploads kappa bits (16 B) and the sender sends
	// its correlation t and one masked message z (32 B); this grounds the
	// calib constants.
	a, b := transport.Pipe()
	sCh := make(chan *ExtSender, 1)
	eCh := make(chan error, 1)
	go func() {
		s, err := NewExtSender(a, newSeeded(12))
		sCh <- s
		eCh <- err
	}()
	r, err := NewExtReceiver(b, newSeeded(13))
	if err != nil {
		t.Fatal(err)
	}
	s := <-sCh
	if err := <-eCh; err != nil {
		t.Fatal(err)
	}
	aSent, bSent := a.SentBytes(), b.SentBytes()

	const n = 4096
	rng := rand.New(rand.NewSource(14))
	pairs := randomPairs(rng, n)
	choices := randomChoices(rng, n)
	errCh := make(chan error, 1)
	go func() { errCh <- s.Send(pairs) }()
	if _, err := r.Receive(choices); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	perOTUp := float64(b.SentBytes()-bSent) / n   // receiver -> sender
	perOTDown := float64(a.SentBytes()-aSent) / n // sender -> receiver
	if perOTUp < 15.9 || perOTUp > 16.5 {
		t.Errorf("receiver upload %.2f B/OT, want ~16", perOTUp)
	}
	if perOTDown < 31.9 || perOTDown > 32.5 {
		t.Errorf("sender download %.2f B/OT, want ~32", perOTDown)
	}
}

// BenchmarkOTExtension is a chosen OT of the a labels of one demo-CNN
// inference: one batch per ReLU layer (256 and 128 units of 20-bit shares)
// on one endpoint pair, the sender on a goroutine that outlives the loop so
// allocs/op is the extension's own. Client-Garbler pays the same extension
// offline, as a bound batch with no frame past u; the online leg left is
// BenchmarkOTOnline.
func BenchmarkOTExtension(b *testing.B) {
	s, r := setupExtension(b)
	rng := rand.New(rand.NewSource(17))
	sizes := []int{5120, 2560}
	pairs := make([][][2]Message, len(sizes))
	choices := make([][]bool, len(sizes))
	total := 0
	for l, m := range sizes {
		pairs[l], choices[l] = randomPairs(rng, m), randomChoices(rng, m)
		total += m
	}
	batches := make(chan [][2]Message)
	errs := make(chan error)
	go func() {
		for p := range batches {
			errs <- s.Send(p)
		}
	}()
	defer close(batches)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := range sizes {
			batches <- pairs[l]
			if _, err := r.Receive(choices[l]); err != nil {
				b.Fatal(err)
			}
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/OT")
}

// BenchmarkOTOnline is what is left of BenchmarkOTExtension on the online
// path once the OTs are precomputed: the d and z legs of one demo-CNN
// inference's two batches. Each op's batches are precomputed with the timer
// stopped.
func BenchmarkOTOnline(b *testing.B) {
	s, r := setupExtension(b)
	rng := rand.New(rand.NewSource(21))
	sizes := []int{5120, 2560}
	pads, choices := make([][]byte, len(sizes)), make([][]bool, len(sizes))
	for l, m := range sizes {
		pads[l], choices[l] = randomPads(m, int64(l)), randomChoices(rng, m)
	}
	jobs := make(chan func() error)
	errs := make(chan error)
	go func() {
		for f := range jobs {
			errs <- f()
		}
	}()
	defer close(jobs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l, m := range sizes {
			b.StopTimer()
			var sb *SenderPads
			jobs <- func() (err error) { sb, _, err = offer(s, pads[l]); return }
			rb, err := openRandom(r, m, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			jobs <- func() error { return s.SendPrecomputed(sb, pads[l]) }
			if _, err := r.ReceivePrecomputed(rb, choices[l]); err != nil {
				b.Fatal(err)
			}
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(sizes[0]+sizes[1])), "ns/OT")
}

// BenchmarkBaseOT is one full handshake's base OTs: kappa random OTs, both
// parties on one pipe.
func BenchmarkBaseOT(b *testing.B) {
	var choices Message
	rand.New(rand.NewSource(18)).Read(choices[:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x, y := transport.Pipe()
		errCh := make(chan error, 1)
		go func() { _, err := baseSend(x, newSeeded(19)); errCh <- err }()
		if _, err := baseReceive(y, choices, newSeeded(20)); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	}
}
