package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/bin"
	"privinf/internal/delphi"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/ot"
)

// On-disk compatibility goldens: testdata/golden holds one file per durable
// format (PIAF artifact, PITK ticket record, PIPB preamble), written from
// the fixed inputs below. ticket.pitk was written by the hand-written
// ticket store at commit 61793ac, the last commit before the three stores
// became one durableStore. toy.piart and client.pipre were regenerated
// when the stores stopped persisting what a party derives from ModelMeta:
// PIAF v2 holds no plans or circuits, and a PIPB v1 preamble no cached
// client artifact (testdata/cachedartifact keeps the preamble as written
// before). Wire v13 regenerated both again: toy.piart's payload opens with
// artifact codec version 3 (its byte 21 and checksum moved, nothing else),
// and client.pipre stores the public key seeded, seed ‖ b, 504 bytes
// shorter at the golden degree. ticket.pitk holds no key, and a record
// with none is written exactly as before, so it did not move. client.pipre
// was regenerated once more, with no format change, when preambles stopped
// holding a master HE seed: the fixed input's pair is now drawn straight
// from the entropy, and the seed field is written empty, 32 bytes shorter
// (testdata/masterseed keeps the file as written before). The test proves
// no byte on disk has moved since. Regenerate only for a deliberate
// format-version bump:
//
//	go test ./internal/serve -run TestGoldenFiles -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenRingN keeps the committed files small: the formats do not depend
// on the ring degree, only the payload sizes do.
const goldenRingN = 64

// goldenNet is a fixed 2-layer toy network (4 → 3 → ReLU → 2), spelled out
// so the artifact bytes depend on no random source.
func goldenNet() *nn.Lowered {
	return &nn.Lowered{
		F:    field.New(field.P20),
		Frac: 4,
		Linear: []nn.LinearSpec{
			{W: [][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}, B: []uint64{1, 2, 3}},
			{W: [][]uint64{{3, 1, 2}, {2, 3, 1}}, B: []uint64{4, 5}},
		},
		Shifts: []uint{4},
	}
}

func goldenParams(t testing.TB) bfv.Params {
	t.Helper()
	params, err := bfv.NewParams(goldenRingN, field.P20)
	if err != nil {
		t.Fatal(err)
	}
	return params
}

var goldenExpiry = time.Unix(4102444800, 123456789) // 2100-01-01, far from any test clock

// goldenTicket is a fixed ticket record.
func goldenTicket(t *testing.T) ticketRecord {
	return testTicketRecord(t, 7, goldenExpiry)
}

// goldenPreamble is a preamble populated the way a real repeat client's
// is — ticket + OT state and the HE key pair of its full handshake — from
// fixed inputs.
func goldenPreamble(t *testing.T) *Preamble {
	t.Helper()
	params := goldenParams(t)
	p := NewPreamble()
	p.storeTicket(goldenTicket(t).id, goldenTicket(t).state)
	if _, err := p.sessionKeys(params, &seqEntropy{}, false); err != nil {
		t.Fatal(err)
	}
	return p
}

// checkGolden proves one format's bytes have not moved: the store writes
// the row's fixed value to exactly the committed file, and loads the
// committed file and re-saves it byte-identically.
func checkGolden[T any](t *testing.T, file string, row storeRow[T]) {
	ds, err := row.open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.save("golden", row.value(t)); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(ds.path("golden"))
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, written, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("writing the fixed input produced %d bytes that differ from the %d-byte golden file", len(written), len(golden))
	}

	if err := os.WriteFile(ds.path("golden"), golden, 0o600); err != nil {
		t.Fatal(err)
	}
	v, err := ds.load("golden", row.unmarshal)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.save("resaved", v); err != nil {
		t.Fatal(err)
	}
	if resaved, err := os.ReadFile(ds.path("resaved")); err != nil || !bytes.Equal(resaved, golden) {
		t.Fatalf("load + re-save of the golden file is not byte-identical (err %v)", err)
	}
}

func TestGoldenFiles(t *testing.T) {
	t.Run("artifact", func(t *testing.T) { checkGolden(t, "toy.piart", artifactRow()) })
	t.Run("ticket", func(t *testing.T) { checkGolden(t, "ticket.pitk", ticketRow()) })
	t.Run("preamble", func(t *testing.T) { checkGolden(t, "client.pipre", preambleRow()) })
}

// TestPreambleWithMasterSeedLoads: testdata/masterseed/client.pipre is the
// golden preamble as written while preambles held a master HE seed and its
// derivation nonce — the same PIPB v1 frame and layout. It loads with its
// ticket, OT state and key pair intact, the seed and nonce discarded, and
// re-saves exactly the seed's 32 bytes shorter.
func TestPreambleWithMasterSeedLoads(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "masterseed"))); err != nil {
		t.Fatal(err)
	}
	ps, err := NewPreambleStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ps.Load("client")
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(ps.Path("client"))
	if err != nil {
		t.Fatal(err)
	}
	r := bin.NewReader(old[storeHeaderBytes:])
	ticketRaw := r.Blob()
	r.U64() // OT-state flag
	stateRaw := r.Blob()
	seed, nonce := r.Blob(), r.U64()
	r.U64() // HE-keys flag
	r.U64() // N
	r.U64() // T
	skRaw, pkRaw := r.Blob(), r.Blob()
	if r.Err() != nil || len(seed) != preambleSeedBytes || nonce == 0 {
		t.Fatalf("the fixture holds no master seed and nonce (err %v)", r.Err())
	}
	ticket, state := p.ticketSnapshot()
	if st, err := state.MarshalBinary(); err != nil || !bytes.Equal(ticket, ticketRaw) || !bytes.Equal(st, stateRaw) {
		t.Fatal("the fixture's ticket or OT state did not load intact")
	}
	keys := heGeneration(p)
	if keys == nil {
		t.Fatal("the fixture loaded with no key pair")
	}
	if sk, err := keys.SK.MarshalBinary(); err != nil || !bytes.Equal(sk, skRaw) || !bytes.Equal(keys.PK, pkRaw) || p.heParams.N != goldenRingN || p.heParams.T != field.P20 {
		t.Fatal("the fixture's key pair did not load intact")
	}
	if err := ps.Save("client", p); err != nil {
		t.Fatal(err)
	}
	resaved, err := os.ReadFile(ps.Path("client"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resaved) != len(old)-preambleSeedBytes {
		t.Fatalf("re-saved preamble is %d bytes, want the fixture's %d less the %d-byte seed", len(resaved), len(old), preambleSeedBytes)
	}
}

// TestPreambleWithCachedArtifactLoads: testdata/cachedartifact/client.pipre
// is the golden preamble as written while preambles still stored each
// cached client artifact — the same PIPB v1 frame, with one (name,
// artifact) entry after the keys, and the public key before wire v13's
// seeded form. It loads with its ticket and OT state intact and the entry
// discarded; its key pair, whose public key is of the older form, is
// dropped, not derived again. It serves a session, whose client derives
// its model state from the welcome and draws a key pair. Its OT sender
// state's s has lsb 0, so since wire v16 that session is a full handshake
// on the same connection (the engine holds the matching ticket all the
// same), and the next connect resumes on the state it left, with no
// keygen.
func TestPreambleWithCachedArtifactLoads(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "cachedartifact"))); err != nil {
		t.Fatal(err)
	}
	ps, err := NewPreambleStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ps.Load("client")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenPreamble(t)
	ticket, state := p.ticketSnapshot()
	if !bytes.Equal(ticket, want.ticket) || !reflect.DeepEqual(state, want.state) || heGeneration(p) != nil {
		t.Fatal("the fixture loaded without its ticket and OT state, or with its pre-v13 key pair")
	}

	// The engine holds the ticket with a receiver state matching the
	// fixture's sender state: seed i of the pair the sender's choice bit s_i
	// picks is the sender's seed i; the other seed is arbitrary.
	snd, err := p.state.Sender.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rcv := []byte{2} // receiver-only OTResume flag
	for i := 0; i < ot.SenderStateBytes/ot.KeySize-1; i++ {
		pair := make([]byte, 2*ot.KeySize)
		s := int(snd[i/8] >> (i % 8) & 1)
		copy(pair[s*ot.KeySize:], snd[(i+1)*ot.KeySize:(i+2)*ot.KeySize])
		rcv = append(rcv, pair...)
	}
	rec := goldenTicket(t)
	if rec.state, err = delphi.UnmarshalOTResume(rcv); err != nil {
		t.Fatal(err)
	}
	tickets := t.TempDir()
	ts, err := newTicketStore(tickets)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.save(rec); err != nil {
		t.Fatal(err)
	}
	art, err := delphi.NewSharedModel(goldenParams(t), goldenNet())
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	t.Cleanup(reg.Close)
	if err := reg.RegisterArtifact("default", art); err != nil {
		t.Fatal(err)
	}
	_, ln := pipeEngine(t, Config{Registry: reg, Variant: delphi.ClientGarbler, TicketDir: tickets})
	c := connectPreamble(t, ln, "", p)
	defer c.Close()
	if resumed, code := c.ResumeOutcome(); resumed || code != "" {
		t.Fatalf("connect on the fixture's lsb-0 state resumed=%v reject=%q, want a full handshake", resumed, code)
	}
	inferOnce(t, c, goldenNet())
	keys := heGeneration(p)
	c2 := connectPreamble(t, ln, "", p)
	defer c2.Close()
	if !c2.Resumed() || heGeneration(p) != keys {
		t.Fatal("connect after the full handshake did not resume, or drew new keys")
	}
	inferOnce(t, c2, goldenNet())
}
