package delphi

import (
	"testing"

	"privinf/internal/bfv"
	"privinf/internal/boolcirc"
	"privinf/internal/field"
	"privinf/internal/nn"
)

// TestNewClientValidation: parameter and metadata mismatches are caught
// at construction, not mid-protocol.
func TestNewClientValidation(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 11)
	if err != nil {
		t.Fatal(err)
	}
	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		t.Fatal(err)
	}
	meta := MetaOf(model)

	bad := meta
	bad.P = meta.P + 2
	if _, err := NewClient(nil, Config{HEParams: params}, bad, nil); err == nil {
		t.Fatal("NewClient accepted a field/params mismatch")
	}

	other := meta
	other.Dims = append([]LayerDim(nil), meta.Dims...)
	other.Dims[0].In++
	if meta.Equal(other) {
		t.Fatal("Equal missed a dimension change")
	}
	if !meta.Equal(MetaOf(model)) {
		t.Fatal("Equal rejected an identical metadata")
	}
}

// TestNewClientSharesCircuits: two clients of one model, and the server's
// artifact for it, read the same built circuits from the process-wide
// table, so a reconnect builds none.
func TestNewClientSharesCircuits(t *testing.T) {
	model, err := nn.DemoCNN(field.New(field.P20), 5)
	if err != nil {
		t.Fatal(err)
	}
	params := heParams(model.F.P())
	cfg := Config{Variant: ClientGarbler, HEParams: params}
	a, err := NewClient(nil, cfg, MetaOf(model), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewClient(nil, cfg, MetaOf(model), nil)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSharedModel(params, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.circuits) == 0 {
		t.Fatal("client holds no circuits")
	}
	for i, c := range a.circuits {
		if b.circuits[i] != c || sm.circuits[i] != c {
			t.Fatalf("ReLU layer %d: circuit built again instead of read from the table", i)
		}
	}
}

// TestReLUCircuitTableBounded: the table keeps each spec's circuit until
// a spec past maxCachedCircuits arrives, which clears it, so it never
// holds more than maxCachedCircuits circuits.
func TestReLUCircuitTableBounded(t *testing.T) {
	tableLen := func() int {
		reluMu.Lock()
		defer reluMu.Unlock()
		return len(reluCircuits)
	}
	reluMu.Lock()
	clear(reluCircuits)
	reluMu.Unlock()

	spec := func(i int) boolcirc.ReLUSpec { return boolcirc.ReLUSpec{P: 251 + 2*uint64(i)} }
	first := reluCircuit(spec(0))
	for i := 1; i < maxCachedCircuits; i++ {
		reluCircuit(spec(i))
	}
	if n := tableLen(); n != maxCachedCircuits {
		t.Fatalf("table holds %d circuits after %d specs", n, maxCachedCircuits)
	}
	if reluCircuit(spec(0)) != first {
		t.Fatal("a full table rebuilt a cached circuit")
	}

	reluCircuit(spec(maxCachedCircuits))
	if n := tableLen(); n != 1 {
		t.Fatalf("table holds %d circuits after spec %d, want it cleared to 1", n, maxCachedCircuits+1)
	}
	if reluCircuit(spec(0)) == first {
		t.Fatal("spec 0's circuit survived the clear")
	}
}
