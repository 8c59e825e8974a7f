package privinf

import (
	"reflect"
	"testing"

	"privinf/internal/obs"
)

func TestSessionBufferedInference(t *testing.T) {
	model, err := NewDemoMLP(9)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLocalEngine(LocalEngineConfig{Models: map[string]*Model{"m": model}, Variant: ClientGarbler, Entropy: newSeeded(10)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess, err := eng.Connect("m")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

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
	if _, err := NewLocalEngine(LocalEngineConfig{Models: map[string]*Model{"bad": bad}, Variant: ServerGarbler}); err == nil {
		t.Fatal("invalid model must be rejected")
	}
}

// TestLocalEngineCloseRetiresRegistry: closing a LocalEngine retires the
// registry it built from the process metrics view, so a registry event
// after Close reaches no scrape (a closed engine's registry stays out of
// /metrics for good).
func TestLocalEngineCloseRetiresRegistry(t *testing.T) {
	const name = "retire-probe"
	model, err := NewDemoMLP(41)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewLocalEngine(LocalEngineConfig{Models: map[string]*Model{name: model}, Variant: ClientGarbler})
	if err != nil {
		t.Fatal(err)
	}
	reg := e.eng.Registry()
	if _, err := reg.Get(name); err != nil { // build now, so the Get below hits
		t.Fatal(err)
	}
	e.Close()
	hits := func() (n float64) {
		for _, f := range obs.Default().Gather() {
			if f.Name != "pi_registry_total" {
				continue
			}
			for _, s := range f.Samples {
				if s.Labels[0] == name && s.Labels[1] == "hit" {
					n += s.Value
				}
			}
		}
		return n
	}
	before := hits()
	if _, err := reg.Get(name); err != nil {
		t.Fatal(err)
	}
	if after := hits(); after != before {
		t.Fatalf("a hit after Close moved the process view %v -> %v: the registry is still mounted", before, after)
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

// TestRunLocalInferenceRejectsInvalidModel: a missing or malformed model
// fails RunLocalInference with an error, never a panic.
func TestRunLocalInferenceRejectsInvalidModel(t *testing.T) {
	for _, bad := range []*Model{nil, {}} {
		if _, err := RunLocalInference(bad, ClientGarbler, make([]uint64, 64), nil); err == nil {
			t.Fatalf("RunLocalInference(%v) accepted an invalid model", bad)
		}
	}
}
