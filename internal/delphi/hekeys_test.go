package delphi

import (
	"bytes"
	"testing"

	"privinf/internal/bfv"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/transport"
)

func testHEParams(t *testing.T) bfv.Params {
	t.Helper()
	params, err := bfv.NewParams(bfv.DefaultN, field.New(field.P20).P())
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// TestHEKeyPairValidate: a pair drawn under one ring degree is rejected
// against another — the check a session runs before installing a held or
// deserialized pair — and its public key is the seeded form every connect
// sends.
func TestHEKeyPairValidate(t *testing.T) {
	params := testHEParams(t)
	kp, err := NewHEKeyPair(params, newSeeded(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bfv.ParsePublicKey(params.N, kp.PK); err != nil {
		t.Fatal(err)
	}
	if err := kp.Validate(params); err != nil {
		t.Fatal(err)
	}
	smaller, err := bfv.NewParams(params.N/2, params.T)
	if err != nil {
		t.Fatal(err)
	}
	if err := kp.Validate(smaller); err == nil {
		t.Fatal("pair validated against the wrong ring degree")
	}
	if err := (HEKeyPair{}).Validate(params); err == nil {
		t.Fatal("zero pair validated")
	}
	if err := (HEKeyPair{SK: kp.SK, PK: kp.PK[1:]}).Validate(params); err == nil {
		t.Fatal("pair with a short public key validated")
	}
}

// TestSetupResumedMatchesPlaintext: the resumed fast path — cached OT
// material and a reused HE key pair, with no keygen — produces
// inference outputs bit-identical to plaintext evaluation (and therefore to
// every other correct session, the fresh-keygen path included), in both
// variants. The client sends its public key, and the server holds exactly
// that key, seeded.
func TestSetupResumedMatchesPlaintext(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []Variant{ServerGarbler, ClientGarbler} {
		t.Run(variant.String(), func(t *testing.T) {
			// A resumed session always sends the key; there is no
			// sendKey=false case any more.
			t.Run("sendKey=true", func(t *testing.T) {
				resumeWithKeys(t, variant, model)
			})
		})
	}
}

// resumeWithKeys resumes one session of variant on the OT state of a first
// one and a held key pair, and checks the key the server received and
// one inference.
func resumeWithKeys(t *testing.T, variant Variant, model *nn.Lowered) {
	first := newSession(t, variant, model, 0)
	cliRes, srvRes := first.client.OTResume(), first.server.OTResume()
	if cliRes == nil || srvRes == nil {
		t.Fatal("OTResume returned nil after a completed Setup")
	}

	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		t.Fatal(err)
	}
	keys, err := NewHEKeyPair(params, newSeeded(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Variant: variant, HEParams: params}
	cc, sc := transport.Pipe()
	server, err := NewServerShared(sc, cfg, first.server.shared, newSeeded(1005))
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cc, cfg, MetaOf(model), newSeeded(2006))
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("resume-keys-nonce")
	errCh := make(chan error, 1)
	go func() { errCh <- server.SetupResumed(srvRes, nonce) }()
	if err := client.SetupKeys(keys, cliRes, nonce); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if pk, err := server.pk.MarshalBinary(); err != nil || !bytes.Equal(pk, keys.PK) {
		t.Fatal("server holds another public key than the client's")
	}

	s := &session{client: client, server: server, model: model}
	x := randomInput(model.F, model.InputLen(), 29)
	got, _, _, _, _ := s.inferPrivately(t, x)
	want := model.Forward(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d: private %d, plaintext %d", i, got[i], want[i])
		}
	}
}

// TestSetupKeysRejectsBadState: a mismatched key pair, an empty session
// nonce and a state for the wrong role (a sender state under a variant
// that makes this party the receiver) all fail before any protocol
// traffic: the key goes out only after the resume state has expanded.
func TestSetupKeysRejectsBadState(t *testing.T) {
	params := testHEParams(t)
	smaller, err := bfv.NewParams(params.N/2, params.T)
	if err != nil {
		t.Fatal(err)
	}
	wrongKeys, err := NewHEKeyPair(smaller, newSeeded(3))
	if err != nil {
		t.Fatal(err)
	}
	goodKeys, err := NewHEKeyPair(params, newSeeded(4))
	if err != nil {
		t.Fatal(err)
	}

	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 11)
	if err != nil {
		t.Fatal(err)
	}
	first := newSession(t, ClientGarbler, model, 0)
	senderRes := first.client.OTResume() // CG client exports a Sender state
	if senderRes.Sender == nil || senderRes.Receiver != nil {
		t.Fatalf("CG client state: %+v, want sender-only", senderRes)
	}

	cfg := Config{Variant: ClientGarbler, HEParams: params}
	cc, _ := transport.Pipe()
	client, err := NewClient(cc, cfg, MetaOf(model), newSeeded(2008))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SetupKeys(wrongKeys, senderRes, []byte("n")); err == nil {
		t.Fatal("wrong-degree pair accepted")
	}
	if err := client.SetupKeys(goodKeys, senderRes, nil); err == nil {
		t.Fatal("empty session nonce accepted")
	}
	sgClient, err := NewClient(cc, Config{Variant: ServerGarbler, HEParams: params}, MetaOf(model), newSeeded(2009))
	if err != nil {
		t.Fatal(err)
	}
	if err := sgClient.SetupKeys(goodKeys, senderRes, []byte("n")); err == nil {
		t.Fatal("sender state accepted for a receiver role")
	}

	_, sc := transport.Pipe()
	server, err := newTestServer(sc, cfg, model, newSeeded(1009))
	if err != nil {
		t.Fatal(err)
	}
	if err := server.SetupResumed(nil, []byte("n")); err == nil {
		t.Fatal("server accepted nil OT state")
	}
	if err := server.SetupResumed(senderRes, []byte("n")); err == nil {
		t.Fatal("server accepted a sender state for its receiver role")
	}
	if cc.SentBytes() != 0 {
		t.Fatalf("refused resumptions sent %d bytes", cc.SentBytes())
	}
}
