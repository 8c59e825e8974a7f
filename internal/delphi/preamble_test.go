package delphi

import (
	"testing"

	"privinf/internal/bfv"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/transport"
)

// TestClientSharedReuseAcrossSessions: one ClientShared serves several
// sequential sessions (what a repeat client's preamble cache does) and the
// artifact reports a nonzero budgetable footprint.
func TestClientSharedReuseAcrossSessions(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 9)
	if err != nil {
		t.Fatal(err)
	}
	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		t.Fatal(err)
	}
	meta := MetaOf(model)
	cs, err := NewClientShared(params, meta)
	if err != nil {
		t.Fatal(err)
	}
	if cs.SizeBytes() == 0 {
		t.Fatal("client artifact reports zero size")
	}
	if !cs.Meta().Equal(meta) {
		t.Fatal("client artifact metadata diverged from the model's")
	}

	shared, err := NewSharedModel(params, model)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Variant: ClientGarbler, HEParams: params}
	x := randomInput(f, model.InputLen(), 23)
	want := model.Forward(x)
	for k := 0; k < 2; k++ {
		cc, sc := transport.Pipe()
		server, err := NewServerShared(sc, cfg, shared, newSeeded(int64(3000+k)))
		if err != nil {
			t.Fatal(err)
		}
		client, err := NewClientWithShared(cc, cfg, cs, newSeeded(int64(4000+k)))
		if err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() { errCh <- server.Setup() }()
		if err := client.Setup(); err != nil {
			t.Fatal(err)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		s := &session{client: client, server: server, model: model}
		got, _, _, _, _ := s.inferPrivately(t, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("session %d output %d: private %d, plaintext %d", k, i, got[i], want[i])
			}
		}
	}
}

// TestClientSharedValidation: parameter and metadata mismatches are caught
// at construction, not mid-protocol.
func TestClientSharedValidation(t *testing.T) {
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
	if _, err := NewClientShared(params, bad); err == nil {
		t.Fatal("NewClientShared accepted a field/params mismatch")
	}
	if _, err := NewClientWithShared(nil, Config{HEParams: params}, nil, nil); err == nil {
		t.Fatal("NewClientWithShared accepted a nil artifact")
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
