package serve

import (
	"reflect"
	"testing"

	"privinf/internal/bfv"
	"privinf/internal/bin"
	"privinf/internal/delphi"
	"privinf/internal/field"
)

// seqEntropy is a deterministic entropy source for tests that exercise the
// HE seed-draw path.
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
	// writeKeys writes a preamble of a fresh key generation whose pk blob
	// is pkRaw.
	writeKeys := func(w *bin.Writer, pkRaw []byte) {
		p := NewPreamble()
		keys, err := p.freshHEKeys(goldenParams(t), &seqEntropy{})
		if err != nil {
			t.Fatal(err)
		}
		other, err := delphi.DeriveHEKeyPair(goldenParams(t), p.heSeed, p.heNonce+1)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := other.SK.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(pkRaw) == 8+8*goldenRingN { // a genuine sk, only the pk damaged
			if sk, err = keys.SK.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}
		w.Blob(nil)
		w.U64(0)
		w.Blob(p.heSeed)
		w.U64(p.heNonce)
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
		// A key stored before wire v13, (degree ‖ b ‖ a), is derived again
		// from the master seed; a secret key that seed does not give is
		// refused, as is a pk of neither form.
		"pre-v13 key not from its seed": func(w *bin.Writer) {
			writeKeys(w, make([]byte, 8+16*goldenRingN))
		},
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
}

// TestPreambleCountsWhatItHolds: after a cold Client-Garbler connect at
// N = 4096 a preamble holds the OT sender state (2,064 B), the master HE
// seed (32 B), sk (32,768 B) and the public key seeded, seed ‖ b (32,784
// B): 67,648 B, and a reload of it holds and reports the same, its public
// key included.
func TestPreambleCountsWhatItHolds(t *testing.T) {
	model := testModel(t, 68)
	_, ln := pipeEngine(t, testConfig(t, model))
	p := NewPreamble()
	connectPreamble(t, ln, "", p).Close()
	if got := p.SizeBytes(); got != 67648 {
		t.Fatalf("fresh preamble reports %d bytes, want 67,648", got)
	}
	raw, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalPreamble(raw)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SizeBytes() != p.SizeBytes() || !reflect.DeepEqual(loaded.heKeys.PK, p.heKeys.PK) {
		t.Fatalf("reloaded preamble reports %d bytes and holds another key form than the fresh one's %d", loaded.SizeBytes(), p.SizeBytes())
	}
}
