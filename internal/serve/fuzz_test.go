package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/bin"
	"privinf/internal/delphi"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/transport"
)

// demoModel/demoParams are the fuzz setups' model helpers — the same
// shapes testModel/mustParams build, minus the *testing.T plumbing.
func demoModel(seed int64) (*nn.Lowered, error) {
	return nn.DemoMLP(field.New(field.P20), seed)
}

func demoParams(model *nn.Lowered) (bfv.Params, error) {
	return bfv.NewParams(bfv.DefaultN, model.F.P())
}

// Go-native fuzz targets for every input surface the durable-session work
// added: the ticket record codec (hostile disk bytes behind the frame
// checksum), the preamble codec (the client's persisted state), and the
// hello message (the one network input a pre-handshake peer controls).
// CI's fuzz-smoke job runs each for a short budget; the seed corpus below
// keeps plain `go test` exercising the interesting shapes.

// FuzzTicketRecordUnmarshal: arbitrary bytes never panic the record codec,
// and any accepted payload re-encodes to exactly the input, or to the
// input minus one trailing length-prefixed key that bfv.ParsePublicKey
// accepts (a wire-v13 record, whose key the reader checks and drops) —
// the codec admits only its own canonical encoding and that one legacy
// form.
func FuzzTicketRecordUnmarshal(f *testing.F) {
	rec := testTicketRecord(f, 70, time.Now().Add(time.Hour))
	valid, err := marshalTicketRecord(rec)
	if err != nil {
		f.Fatal(err)
	}
	keyed := withTicketKey(f, valid)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add(keyed)
	f.Add(keyed[:len(keyed)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := unmarshalTicketRecord(data)
		if err != nil {
			return
		}
		re, err := marshalTicketRecord(rec)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if bytes.Equal(re, data) {
			return
		}
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("non-canonical payload accepted: %d bytes in, %d bytes re-encoded", len(data), len(re))
		}
		r := bin.NewReader(data[len(re):])
		key := r.Blob()
		if err := r.Done(); err != nil {
			t.Fatalf("accepted payload ends in %d bytes that are no one blob: %v", len(data)-len(re), err)
		}
		if _, err := bfv.ParsePublicKey((len(key)-bfv.SeedSize)/8, key); err != nil {
			t.Fatalf("accepted payload ends in a blob that is no strict key: %v", err)
		}
	})
}

// FuzzPreambleUnmarshal: arbitrary bytes never panic the preamble codec,
// and any accepted payload survives a marshal → unmarshal round trip (the
// decoded state is self-consistent enough to persist again).
func FuzzPreambleUnmarshal(f *testing.F) {
	empty, err := NewPreamble().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)

	full := NewPreamble()
	id := make([]byte, ticketIDBytes)
	for i := range id {
		id[i] = byte(i)
	}
	full.storeTicket(id, testOTResume(f, 71))
	model, err := demoModel(72)
	if err != nil {
		f.Fatal(err)
	}
	params, err := demoParams(model)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := full.sessionKeys(params, &seqEntropy{}, false); err != nil {
		f.Fatal(err)
	}
	fullEnc, err := full.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fullEnc)
	f.Add(fullEnc[:len(fullEnc)/2])
	f.Add([]byte{})
	// Payloads of older writers: one that stored a cached client artifact,
	// whose entry the decoder reads and discards, and one that stored a
	// master HE seed, which it discards too.
	for _, dir := range []string{"cachedartifact", "masterseed"} {
		old, err := os.ReadFile(filepath.Join("testdata", dir, "client.pipre"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old[storeHeaderBytes:])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPreamble(data)
		if err != nil {
			return
		}
		re, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		if _, err := UnmarshalPreamble(re); err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
	})
}

// FuzzClientHello drives arbitrary hello bodies — the first JSON a peer
// controls — through a live engine's handshake: whatever the bytes, the
// engine must answer with exactly one control frame (a welcome or a typed
// rejection), never hang, never panic, never crash the accept loop.
func FuzzClientHello(f *testing.F) {
	model, err := demoModel(73)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := New(Config{Registry: testRegistry(f, model), Variant: delphi.ClientGarbler, LPHEWorkers: 2})
	if err != nil {
		f.Fatal(err)
	}
	ln := transport.NewPipeListener()
	go eng.Serve(ln)
	f.Cleanup(func() { eng.Close() })

	f.Add([]byte(marshalJSON(helloMsg{Version: wireVersion})))
	f.Add([]byte(marshalJSON(helloMsg{Version: wireVersion, Model: "nope"})))
	f.Add([]byte(marshalJSON(helloMsg{Version: wireVersion, Ticket: make([]byte, ticketIDBytes), Nonce: make([]byte, ticketIDBytes)})))
	f.Add([]byte(marshalJSON(helloMsg{Version: wireVersion, Ticket: make([]byte, ticketIDBytes)}))) // ticket, no nonce
	f.Add([]byte(marshalJSON(helloMsg{Version: 2})))
	f.Add([]byte("not json"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		conn, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := transport.SendPreamble(conn, transport.Preamble{Version: wireVersion}); err != nil {
			t.Fatal(err)
		}
		if err := sendCtrl(conn, opHello, body); err != nil {
			t.Fatal(err)
		}
		op, reply, err := recvCtrl(conn)
		if err != nil {
			t.Fatalf("no handshake answer: %v", err)
		}
		switch op {
		case opWelcome:
			var w welcomeMsg
			if err := unmarshalJSON(reply, &w); err != nil {
				t.Fatalf("welcome body undecodable: %v", err)
			}
			if w.Resumed {
				t.Fatal("engine resumed a ticket it never issued")
			}
		case opReject:
			var rej rejectMsg
			if err := unmarshalJSON(reply, &rej); err != nil {
				t.Fatalf("reject body undecodable: %v", err)
			}
			if rej.Code == "" {
				t.Fatal("rejection carries no typed code")
			}
		default:
			t.Fatalf("handshake answered with opcode %d", op)
		}
	})
}
