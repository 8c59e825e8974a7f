package privinf

import (
	"reflect"
	"testing"
)

func TestSessionBufferedInference(t *testing.T) {
	model, err := NewDemoMLP(9)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewLocalSession(model, ClientGarbler, WithEntropy(newSeeded(10)))
	if err != nil {
		t.Fatal(err)
	}

	// Buffer two pre-computes ahead of any request.
	for i := 0; i < 2; i++ {
		if _, _, err := sess.Precompute(); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Buffered() != 2 {
		t.Fatalf("buffered %d, want 2", sess.Buffered())
	}

	for i := 0; i < 2; i++ {
		x := make([]uint64, model.InputLen())
		for j := range x {
			x[j] = uint64((j + i) % 11)
		}
		res, err := sess.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified {
			t.Fatalf("inference %d failed verification", i)
		}
	}
	if sess.Buffered() != 0 {
		t.Fatalf("buffer should be drained, have %d", sess.Buffered())
	}

	// With an empty buffer, Infer runs the offline phase inline.
	res, err := sess.Infer(make([]uint64, model.InputLen()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("on-the-fly inference failed verification")
	}
}

// TestSessionPreambleResume is the public-API view of the preamble
// subsystem: the first session through a Preamble runs a full handshake,
// the reconnect resumes (no base OTs), and both sessions' outputs verify
// bit-exact against plaintext inference.
func TestSessionPreambleResume(t *testing.T) {
	model, err := NewDemoMLP(12)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLocalEngine(LocalEngineConfig{Models: map[string]*Model{"m": model}, Variant: ClientGarbler, Entropy: newSeeded(13)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	x := make([]uint64, model.InputLen())
	for j := range x {
		x[j] = uint64((j*5 + 1) % 12)
	}

	p := NewPreamble()
	cold, err := eng.Connect("m", WithPreamble(p))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Resumed() {
		t.Fatal("first session cannot resume")
	}
	coldRes, err := cold.Infer(x)
	if err != nil || !coldRes.Verified {
		t.Fatalf("cold inference: verified=%v err=%v", coldRes != nil && coldRes.Verified, err)
	}
	cold.Close()

	resumed, err := eng.Connect("m", WithPreamble(p))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if !resumed.Resumed() {
		t.Fatal("reconnect through the preamble did not resume")
	}
	res, err := resumed.Infer(x)
	if err != nil || !res.Verified {
		t.Fatalf("resumed inference: verified=%v err=%v", res != nil && res.Verified, err)
	}
	if !reflect.DeepEqual(res.Output, coldRes.Output) {
		t.Fatal("resumed session's output diverged from the cold session's")
	}
	if st := eng.Stats(); st.Tickets.Resumed != 1 {
		t.Fatalf("engine ticket stats: %+v, want one resume", st.Tickets)
	}
}

// TestLocalEngineConnectDefaultModel: a one-model engine serves an unnamed
// connect its only model, and the session verifies against that model.
func TestLocalEngineConnectDefaultModel(t *testing.T) {
	model, err := NewDemoMLP(14)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLocalEngine(LocalEngineConfig{Models: map[string]*Model{"only": model}, Variant: ClientGarbler, Entropy: newSeeded(15)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s, err := eng.Connect("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Model() != "only" {
		t.Fatalf("unnamed connect served model %q, want %q", s.Model(), "only")
	}
	res, err := s.Infer(make([]uint64, model.InputLen()))
	if err != nil || !res.Verified {
		t.Fatalf("inference: verified=%v err=%v", res != nil && res.Verified, err)
	}
}

func TestSessionRejectsInvalidModel(t *testing.T) {
	bad := &Model{}
	if _, err := NewLocalSession(bad, ServerGarbler); err == nil {
		t.Fatal("invalid model must be rejected")
	}
}

// TestEngineRestartServesReloadedArtifact is the end-to-end persistence
// guarantee: an engine restarted over the same artifact directory serves
// its model from the disk artifact (a reload, not a re-encode), and a live
// session on the reloaded artifact produces bitwise-identical inference
// results to a session on the freshly built one.
func TestEngineRestartServesReloadedArtifact(t *testing.T) {
	model, err := NewDemoMLP(31)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	inputs := make([][]uint64, 3)
	for i := range inputs {
		inputs[i] = make([]uint64, model.InputLen())
		for j := range inputs[i] {
			inputs[i][j] = uint64((j*3 + i) % 13)
		}
	}

	runOnce := func(entropySeed int64) ([][]uint64, bool) {
		eng, err := NewLocalEngine(LocalEngineConfig{
			Models:      map[string]*Model{"m": model},
			Variant:     ClientGarbler,
			ArtifactDir: dir,
			Entropy:     newSeeded(entropySeed),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		sess, err := eng.Connect("m")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		outs := make([][]uint64, len(inputs))
		for i, x := range inputs {
			res, err := sess.Infer(x)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatalf("inference %d failed verification", i)
			}
			outs[i] = res.Output
		}
		st := eng.Stats()
		return outs, st.RegistryReloads > 0
	}

	fresh, reloadedFirst := runOnce(32)
	if reloadedFirst {
		t.Fatal("first engine run reloaded from a directory that started empty")
	}
	// "Restart": a new engine over the same directory must reload, and the
	// reloaded artifact must serve bit-identical outputs.
	again, reloadedSecond := runOnce(33)
	if !reloadedSecond {
		t.Fatal("restarted engine re-encoded the model instead of reloading the stored artifact")
	}
	if !reflect.DeepEqual(fresh, again) {
		t.Fatal("reloaded artifact produced different inference outputs than the freshly built one")
	}
}

// TestSessionWithArtifact: a session opened on a pre-built artifact (nil
// model) serves verified inferences, and an artifact paired with a model it
// was not built from is refused.
func TestSessionWithArtifact(t *testing.T) {
	model, err := NewDemoMLP(21)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := PrepareModel(model)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewLocalSession(nil, ClientGarbler, WithArtifact(artifact), WithEntropy(newSeeded(22)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	x := make([]uint64, model.InputLen())
	for j := range x {
		x[j] = uint64(j % 13)
	}
	if res, err := sess.Infer(x); err != nil || !res.Verified {
		t.Fatalf("shared-session inference: verified=%v err=%v", res != nil && res.Verified, err)
	}
	other, err := NewDemoMLP(23)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLocalSession(other, ClientGarbler, WithArtifact(artifact)); err == nil {
		t.Fatal("artifact accepted for a model it was not built from")
	}
}
