package serve

import (
	"testing"

	"privinf/internal/bfv"
	"privinf/internal/delphi"
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
	emptyTail := func(w *binWriter) { // seed | nonce | keys flag | shared count
		w.blob(nil)
		w.u64(0)
		w.u64(0)
		w.u64(0)
	}
	cases := map[string]func(w *binWriter){
		"short ticket": func(w *binWriter) {
			w.blob(ticket[:8])
			w.u64(1)
			w.blob(stateRaw)
			emptyTail(w)
		},
		"hostile OT-state flag": func(w *binWriter) {
			w.blob(ticket)
			w.u64(2)
		},
		"ticket without OT state": func(w *binWriter) {
			w.blob(ticket)
			w.u64(0)
			emptyTail(w)
		},
		"OT state without ticket": func(w *binWriter) {
			w.blob(nil)
			w.u64(1)
			w.blob(stateRaw)
			emptyTail(w)
		},
		"short HE seed": func(w *binWriter) {
			w.blob(nil)
			w.u64(0)
			w.blob(make([]byte, 16))
			w.u64(0)
			w.u64(0)
			w.u64(0)
		},
		"hostile HE-keys flag": func(w *binWriter) {
			w.blob(nil)
			w.u64(0)
			w.blob(nil)
			w.u64(0)
			w.u64(3)
		},
		"invalid HE params": func(w *binWriter) {
			w.blob(nil)
			w.u64(0)
			w.blob(nil)
			w.u64(0)
			w.u64(1)
			w.u64(3) // N not a power of two
			w.u64(bfv.DefaultN)
			w.blob(nil)
			w.blob(nil)
		},
		"hostile artifact count": func(w *binWriter) {
			w.blob(nil)
			w.u64(0)
			w.blob(nil)
			w.u64(0)
			w.u64(0)
			w.u64(1 << 40)
		},
		"empty artifact name": func(w *binWriter) {
			w.blob(nil)
			w.u64(0)
			w.blob(nil)
			w.u64(0)
			w.u64(0)
			w.u64(1)
			w.blob(nil)
			w.blob(nil)
		},
		"trailing bytes": func(w *binWriter) {
			w.blob(nil)
			w.u64(0)
			w.blob(nil)
			w.u64(0)
			w.u64(0)
			w.u64(0)
			w.buf = append(w.buf, 0xCC)
		},
	}
	for name, build := range cases {
		var w binWriter
		build(&w)
		if _, err := UnmarshalPreamble(w.buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestUnmarshalPreambleRejectsDuplicateArtifacts: two shared artifacts
// under the same model name cannot both win; the payload is rejected.
func TestUnmarshalPreambleRejectsDuplicateArtifacts(t *testing.T) {
	model := testModel(t, 151)
	params := mustParams(t, model)
	cs, err := delphi.NewClientShared(params, delphi.MetaOf(model))
	if err != nil {
		t.Fatal(err)
	}
	csRaw, err := cs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w binWriter
	w.blob(nil)
	w.u64(0)
	w.blob(nil)
	w.u64(0)
	w.u64(0)
	w.u64(2)
	for i := 0; i < 2; i++ {
		w.blob([]byte("m"))
		w.blob(csRaw)
	}
	if _, err := UnmarshalPreamble(w.buf); err == nil {
		t.Fatal("duplicate artifact names accepted")
	}
}
