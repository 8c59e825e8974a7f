package serve

import (
	"bytes"
	"sync"
	"testing"

	"privinf/internal/bfv"
	"privinf/internal/bin"
	"privinf/internal/delphi"
	"privinf/internal/field"
)

// seqEntropy is a deterministic entropy source for tests that draw HE
// key pairs.
type seqEntropy struct{ b byte }

func (s *seqEntropy) Read(p []byte) (int, error) {
	for i := range p {
		s.b++
		p[i] = s.b
	}
	return len(p), nil
}

// TestUnmarshalPreambleRejectsSemanticDamage: payloads whose frame and
// field structure are intact but whose content violates an invariant are
// rejected with an error, not installed.
func TestUnmarshalPreambleRejectsSemanticDamage(t *testing.T) {
	stateRaw, err := testOTResume(t, 51).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ticket := make([]byte, ticketIDBytes)
	emptyTail := func(w *bin.Writer) { // seed | nonce | keys flag | shared count
		w.Blob(nil)
		w.U64(0)
		w.U64(0)
		w.U64(0)
	}
	// writeKeys writes a preamble holding a genuine secret key and the pk
	// blob pkRaw under an older writer's master seed.
	writeKeys := func(w *bin.Writer, pkRaw []byte) {
		keys, err := delphi.NewHEKeyPair(goldenParams(t), &seqEntropy{})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := keys.SK.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		w.Blob(nil)
		w.U64(0)
		w.Blob(make([]byte, preambleSeedBytes))
		w.U64(1)
		w.U64(1)
		w.U64(goldenRingN)
		w.U64(field.P20)
		w.Blob(sk)
		w.Blob(pkRaw)
		w.U64(0)
	}
	cases := map[string]func(w *bin.Writer){
		"short ticket": func(w *bin.Writer) {
			w.Blob(ticket[:8])
			w.U64(1)
			w.Blob(stateRaw)
			emptyTail(w)
		},
		"hostile OT-state flag": func(w *bin.Writer) {
			w.Blob(ticket)
			w.U64(2)
		},
		"ticket without OT state": func(w *bin.Writer) {
			w.Blob(ticket)
			w.U64(0)
			emptyTail(w)
		},
		"OT state without ticket": func(w *bin.Writer) {
			w.Blob(nil)
			w.U64(1)
			w.Blob(stateRaw)
			emptyTail(w)
		},
		"short HE seed": func(w *bin.Writer) {
			w.Blob(nil)
			w.U64(0)
			w.Blob(make([]byte, 16))
			w.U64(0)
			w.U64(0)
			w.U64(0)
		},
		"hostile HE-keys flag": func(w *bin.Writer) {
			w.Blob(nil)
			w.U64(0)
			w.Blob(nil)
			w.U64(0)
			w.U64(3)
		},
		"invalid HE params": func(w *bin.Writer) {
			w.Blob(nil)
			w.U64(0)
			w.Blob(nil)
			w.U64(0)
			w.U64(1)
			w.U64(3) // N not a power of two
			w.U64(bfv.DefaultN)
			w.Blob(nil)
			w.Blob(nil)
		},
		// A key stored before wire v13, (degree ‖ b ‖ a), is dropped (see
		// below); a pk of neither that form nor the seeded one is refused.
		"pk of neither form": func(w *bin.Writer) {
			writeKeys(w, make([]byte, 8+8*goldenRingN))
		},
		"hostile artifact count": func(w *bin.Writer) {
			w.Blob(nil)
			w.U64(0)
			w.Blob(nil)
			w.U64(0)
			w.U64(0)
			w.U64(1 << 40)
		},
		"trailing bytes": func(w *bin.Writer) {
			w.Blob(nil)
			w.U64(0)
			w.Blob(nil)
			w.U64(0)
			w.U64(0)
			w.U64(0)
			w.Buf = append(w.Buf, 0xCC)
		},
	}
	for name, build := range cases {
		var w bin.Writer
		build(&w)
		if _, err := UnmarshalPreamble(w.Buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	var w bin.Writer
	writeKeys(&w, make([]byte, 8+16*goldenRingN))
	p, err := UnmarshalPreamble(w.Buf)
	if err != nil {
		t.Fatalf("pre-v13 key: %v", err)
	}
	if heGeneration(p) != nil {
		t.Fatal("pre-v13 key: the loaded preamble holds the pair; the next connect cannot draw a fresh one")
	}
}

// TestSessionKeys: a resumed session reuses the held pair when it is under
// the session's parameters; a full handshake, or a resumed session under
// other parameters, draws a fresh pair and holds it; a nil preamble draws
// every time and holds nothing.
func TestSessionKeys(t *testing.T) {
	params := goldenParams(t)
	otherField, err := bfv.NewParams(goldenRingN, field.P17)
	if err != nil {
		t.Fatal(err)
	}
	otherDegree, err := bfv.NewParams(2*goldenRingN, field.P20)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPreamble()
	held := heGeneration(p)
	for i, step := range []struct {
		params  bfv.Params
		resumed bool
		draws   bool
	}{
		{params, true, true}, // nothing held yet
		{params, true, false},
		{params, false, true},
		{params, true, false},
		{otherField, true, true},
		{otherDegree, true, true},
		{otherDegree, true, false},
	} {
		keys, err := p.sessionKeys(step.params, &seqEntropy{b: byte(i)}, step.resumed)
		if err != nil {
			t.Fatal(err)
		}
		if err := keys.Validate(step.params); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		now := heGeneration(p)
		if drew := now != held; drew != step.draws || !bytes.Equal(now.PK, keys.PK) {
			t.Fatalf("step %d (resumed %v): drew %v, want %v, and the preamble must hold the pair it returns", i, step.resumed, drew, step.draws)
		}
		held = now
	}

	var none *Preamble
	for _, resumed := range []bool{false, true} {
		keys, err := none.sessionKeys(params, &seqEntropy{}, resumed)
		if err != nil || keys.Validate(params) != nil {
			t.Fatalf("nil preamble, resumed %v: no usable pair (err %v)", resumed, err)
		}
	}

	// Connects through one preamble may run at once (-race checks this).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(resumed bool) {
			defer wg.Done()
			if _, err := p.sessionKeys(params, nil, resumed); err != nil {
				t.Error(err)
			}
			if _, err := p.MarshalBinary(); err != nil {
				t.Error(err)
			}
		}(i%2 == 0)
	}
	wg.Wait()
}

// TestPreambleCountsWhatItHolds: after a cold Client-Garbler connect at
// N = 4096 a preamble holds the OT sender state (2,064 B), sk (32,768 B)
// and the public key seeded, seed ‖ b (32,784 B): 67,616 B, and a reload
// of it holds and reports the same, its public key included.
func TestPreambleCountsWhatItHolds(t *testing.T) {
	model := testModel(t, 68)
	_, ln := pipeEngine(t, testConfig(t, model))
	p := NewPreamble()
	connectPreamble(t, ln, "", p).Close()
	if got := p.SizeBytes(); got != 67616 {
		t.Fatalf("fresh preamble reports %d bytes, want 67,616", got)
	}
	raw, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalPreamble(raw)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SizeBytes() != p.SizeBytes() || !bytes.Equal(loaded.heKeys.PK, p.heKeys.PK) {
		t.Fatalf("reloaded preamble reports %d bytes and holds another key form than the fresh one's %d", loaded.SizeBytes(), p.SizeBytes())
	}
}
