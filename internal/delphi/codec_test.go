package delphi

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"privinf/internal/bfv"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/transport"
)

func codecModel(t *testing.T, seed int64) (*nn.Lowered, bfv.Params) {
	t.Helper()
	model, err := nn.DemoMLP(field.New(field.P20), seed)
	if err != nil {
		t.Fatal(err)
	}
	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		t.Fatal(err)
	}
	return model, params
}

// TestSharedModelRoundTrip: the artifact marshals and unmarshals to a
// deep-equal value — params, meta and NTT-domain weight plaintexts from the
// file, plans and circuits derived again on load — reporting the identical
// resident footprint, and with the circuit sharing derive establishes
// between layers with equal shifts.
func TestSharedModelRoundTrip(t *testing.T) {
	model, params := codecModel(t, 21)
	sm, err := NewSharedModel(params, model)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSharedModel(raw, model)
	if err != nil {
		t.Fatal(err)
	}

	if got.model != model {
		t.Fatal("decoded artifact not attached to the supplied model")
	}
	if !reflect.DeepEqual(sm.meta, got.meta) {
		t.Fatalf("meta did not round-trip: %+v vs %+v", sm.meta, got.meta)
	}
	if !reflect.DeepEqual(sm.plans, got.plans) {
		t.Fatal("plans did not round-trip")
	}
	if !reflect.DeepEqual(sm.weights, got.weights) {
		t.Fatal("encoded weights did not round-trip")
	}
	if !reflect.DeepEqual(sm.circuits, got.circuits) {
		t.Fatal("circuits did not round-trip")
	}
	if got.SizeBytes() != sm.SizeBytes() {
		t.Fatalf("reloaded artifact reports %d bytes, built one %d", got.SizeBytes(), sm.SizeBytes())
	}
	if got.Params().N != sm.Params().N || got.Params().T != sm.Params().T {
		t.Fatal("params did not round-trip")
	}
	// derive shares one circuit across equal-shift layers; a reload must
	// keep that sharing, not expand it into copies. A circuit is built once
	// per process, so the reload holds the very circuits the build does.
	for i := 1; i < len(sm.circuits); i++ {
		if (sm.circuits[i] == sm.circuits[0]) != (got.circuits[i] == got.circuits[0]) {
			t.Fatalf("circuit sharing for layer %d not preserved", i)
		}
	}
	for i := range sm.circuits {
		if got.circuits[i] != sm.circuits[i] {
			t.Fatalf("reload built its own circuit for layer %d", i)
		}
	}
}

// TestSharedModelCodecRejectsWrongModel: an artifact persisted for one
// model must not decode against another (different seed ⇒ same shapes but
// semantically different weights is NOT catchable — what is catchable and
// checked is any metadata difference: field, dims, shifts).
func TestSharedModelCodecRejectsWrongModel(t *testing.T) {
	model, params := codecModel(t, 22)
	sm, err := NewSharedModel(params, model)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	other, err := nn.DemoCNN(field.New(field.P20), 22) // different architecture
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSharedModel(raw, other); err == nil {
		t.Fatal("decode accepted an artifact persisted for a different architecture")
	}
	if _, err := UnmarshalSharedModel(raw, nil); err == nil {
		t.Fatal("decode accepted a nil model")
	}
}

// TestSharedModelCodecRejectsDamage: version flips and truncation anywhere
// in the payload error cleanly. (The on-disk store's checksum catches these
// first; the codec must still hold the line when fed raw bytes.)
func TestSharedModelCodecRejectsDamage(t *testing.T) {
	model, params := codecModel(t, 23)
	sm, err := NewSharedModel(params, model)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range []byte{sharedModelCodecVersion - 1, sharedModelCodecVersion + 1} {
		wrongVersion := append([]byte(nil), raw...)
		wrongVersion[0] = v
		if _, err := UnmarshalSharedModel(wrongVersion, model); err == nil {
			t.Errorf("decode accepted codec version %d", v)
		}
	}

	// A hostile ring degree (here 2^32: a power of two large enough to
	// overflow the primitive-root search, were it reached) must error via
	// parameter validation, not panic or allocate NTT tables. This is the
	// "hostile payload errors rather than panics" contract.
	hostileN := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(hostileN[8:], 1<<32)
	if _, err := UnmarshalSharedModel(hostileN, model); err == nil {
		t.Error("decode accepted a hostile ring degree")
	}

	// Truncate at a spread of offsets, including mid-header, mid-weights
	// and one byte short.
	for _, cut := range []int{0, 4, 17, 100, len(raw) / 2, len(raw) - 1} {
		if _, err := UnmarshalSharedModel(raw[:cut], model); err == nil {
			t.Errorf("decode accepted payload truncated to %d bytes", cut)
		}
	}
	if _, err := UnmarshalSharedModel(append(append([]byte(nil), raw...), 9), model); err == nil {
		t.Error("decode accepted trailing bytes")
	}
}

// TestSharedModelRoundTripServesInference: a decoded artifact is
// functionally identical — a server built on it produces bit-exact
// outputs. This is the in-package half of the live-session guarantee; the
// end-to-end restart test lives in the root package.
func TestSharedModelRoundTripServesInference(t *testing.T) {
	model, params := codecModel(t, 24)
	sm, err := NewSharedModel(params, model)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := UnmarshalSharedModel(raw, model)
	if err != nil {
		t.Fatal(err)
	}

	x := make([]uint64, model.InputLen())
	for i := range x {
		x[i] = uint64((3*i + 1) % 17)
	}
	want := model.Forward(x)
	for _, art := range []*SharedModel{sm, reloaded} {
		out := runPairShared(t, art, x)
		if !reflect.DeepEqual(out, want) {
			t.Fatal("artifact inference diverged from plaintext")
		}
	}
}

// runPairShared runs one full private inference on an artifact-backed
// server over an in-process pipe and returns the output.
func runPairShared(t *testing.T, art *SharedModel, x []uint64) []uint64 {
	t.Helper()
	cfg := Config{Variant: ClientGarbler, HEParams: art.Params(), LPHEWorkers: 2}
	cc, sc := transport.Pipe()
	server, err := NewServerShared(sc, cfg, art, newSeeded(3003))
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cc, cfg, art.Meta(), newSeeded(4004))
	if err != nil {
		t.Fatal(err)
	}
	s := &session{client: client, server: server, model: art.Model()}
	errCh := make(chan error, 1)
	go func() { errCh <- server.Setup() }()
	if err := client.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	out, _, _, _, _ := s.inferPrivately(t, x)
	return out
}

// TestConstructorsRefuseNoisyWeights: a model with a 256-wide row of
// weights at ±(p−1)/2 has a matvec noise bound past the budget, so a
// response could decrypt wrong; NewSharedModel and UnmarshalSharedModel
// both refuse it, naming the layer and the row. The demo CNN and MLP build
// on every seed the bfv noise tests evaluate.
func TestConstructorsRefuseNoisyWeights(t *testing.T) {
	f := field.New(field.P20)
	params := testHEParams(t)
	heavy := func(w uint64) *nn.Lowered {
		row := make([]uint64, 256)
		for i := range row {
			row[i] = w
			if i%2 == 1 {
				row[i] = f.Neg(w)
			}
		}
		return &nn.Lowered{F: f, Linear: []nn.LinearSpec{{W: [][]uint64{make([]uint64, 256), row}, B: make([]uint64, 2)}}}
	}
	noisy := heavy((field.P20 - 1) / 2)
	_, err := NewSharedModel(params, noisy)
	if err == nil || !strings.Contains(err.Error(), "layer 0") || !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("NewSharedModel on a noisy row: %v, want a refusal naming layer 0, row 1", err)
	}
	// An artifact of the same shape, relabelled with the noisy model's
	// weight digest, gets past the codec's own checks to the noise check.
	light, err := NewSharedModel(params, heavy(1))
	if err != nil {
		t.Fatal(err)
	}
	light.model = noisy
	data, err := light.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSharedModel(data, noisy); err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("UnmarshalSharedModel on a noisy row: %v, want a refusal naming row 1", err)
	}
	for _, build := range []func(field.Field, int64) (*nn.Lowered, error){nn.DemoCNN, nn.DemoMLP} {
		for _, seed := range []int64{1, 7, 42, 61, 170} {
			m, err := build(f, seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewSharedModel(params, m); err != nil {
				t.Errorf("demo model seed %d refused: %v", seed, err)
			}
		}
	}
}
