package delphi

import (
	"bytes"
	"reflect"
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

func keyPairBytes(t *testing.T, kp HEKeyPair) ([]byte, []byte) {
	t.Helper()
	sk, err := kp.SK.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kp.PK.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return sk, pk
}

// TestDeriveHEKeyPairDeterministic: the same (seed, params, nonce) always
// derives the bit-identical pair — the property that lets a persisted
// preamble re-derive its keys after a restart — while distinct nonces and
// distinct seeds derive distinct pairs.
func TestDeriveHEKeyPairDeterministic(t *testing.T) {
	params := testHEParams(t)
	seed := bytes.Repeat([]byte{0x42}, 32)

	a, err := DeriveHEKeyPair(params, seed, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeriveHEKeyPair(params, seed, 7)
	if err != nil {
		t.Fatal(err)
	}
	aSK, aPK := keyPairBytes(t, a)
	bSK, bPK := keyPairBytes(t, b)
	if !bytes.Equal(aSK, bSK) || !bytes.Equal(aPK, bPK) {
		t.Fatal("same (seed, nonce) derived different pairs")
	}

	c, err := DeriveHEKeyPair(params, seed, 8)
	if err != nil {
		t.Fatal(err)
	}
	cSK, _ := keyPairBytes(t, c)
	if bytes.Equal(aSK, cSK) {
		t.Fatal("distinct nonces derived the same secret key")
	}

	otherSeed := bytes.Repeat([]byte{0x43}, 32)
	d, err := DeriveHEKeyPair(params, otherSeed, 7)
	if err != nil {
		t.Fatal(err)
	}
	dSK, _ := keyPairBytes(t, d)
	if bytes.Equal(aSK, dSK) {
		t.Fatal("distinct seeds derived the same secret key")
	}

	if _, err := DeriveHEKeyPair(params, nil, 1); err == nil {
		t.Fatal("empty master seed accepted")
	}
}

// TestHEKeyPairValidate: a pair derived under one ring degree is rejected
// against another — the degree check a session runs before installing
// cached or deserialized keys.
func TestHEKeyPairValidate(t *testing.T) {
	params := testHEParams(t)
	kp, err := DeriveHEKeyPair(params, bytes.Repeat([]byte{9}, 32), 1)
	if err != nil {
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
}

// TestSetupResumedMatchesPlaintext: the resumed fast path — cached OT
// material and a derived, reused HE key pair, with no keygen — produces
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
// one and a derived key pair, and checks the key the server received and
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
	keys, err := DeriveHEKeyPair(params, bytes.Repeat([]byte{5}, 32), 1)
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
	if !reflect.DeepEqual(server.pk, keys.PK) {
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
	wrongKeys, err := DeriveHEKeyPair(smaller, bytes.Repeat([]byte{3}, 32), 1)
	if err != nil {
		t.Fatal(err)
	}
	goodKeys, err := DeriveHEKeyPair(params, bytes.Repeat([]byte{3}, 32), 2)
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
