package delphi

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"privinf/internal/bfv"
	"privinf/internal/field"
	"privinf/internal/garble"
	"privinf/internal/nn"
	"privinf/internal/ot"
	"privinf/internal/transport"
)

type seededReader struct{ rng *rand.Rand }

func newSeeded(seed int64) *seededReader {
	return &seededReader{rng: rand.New(rand.NewSource(seed))}
}

func (s *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(s.rng.Intn(256))
	}
	return len(p), nil
}

// newTestServer builds a server session on a private model artifact.
func newTestServer(conn transport.MsgConn, cfg Config, model *nn.Lowered, entropy io.Reader) (*Server, error) {
	shared, err := NewSharedModel(cfg.HEParams, model)
	if err != nil {
		return nil, err
	}
	return NewServerShared(conn, cfg, shared, entropy)
}

// session wires a client and server over an in-process pipe.
type session struct {
	client *Client
	server *Server
	model  *nn.Lowered
}

func newSession(t *testing.T, variant Variant, model *nn.Lowered, lpheWorkers int) *session {
	t.Helper()
	cc, sc := transport.Pipe()
	return newSessionOn(t, variant, model, lpheWorkers, cc, sc)
}

// heParams is the default-degree HE parameter set over plaintext modulus p.
func heParams(p uint64) bfv.Params {
	params, err := bfv.NewParams(bfv.DefaultN, p)
	if err != nil {
		panic(err)
	}
	return params
}

// newSessionOn is newSession over caller-supplied connections.
func newSessionOn(t *testing.T, variant Variant, model *nn.Lowered, lpheWorkers int, cc, sc transport.MsgConn) *session {
	t.Helper()
	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Variant: variant, HEParams: params, LPHEWorkers: lpheWorkers}
	server, err := newTestServer(sc, cfg, model, newSeeded(1001))
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cc, cfg, MetaOf(model), newSeeded(2002))
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
	return &session{client: client, server: server, model: model}
}

// inferPrivately runs one offline+online round and returns output + reports.
func (s *session) inferPrivately(t *testing.T, x []uint64) ([]uint64, OfflineReport, OfflineReport, OnlineReport, OnlineReport) {
	t.Helper()
	cliOff, srvOff := s.offline(t)
	out, cliOn, srvOn := s.online(t, x)
	return out, cliOff, srvOff, cliOn, srvOn
}

// offline runs one pre-compute on both parties.
func (s *session) offline(t *testing.T) (cli, srv OfflineReport) {
	t.Helper()
	type offRes struct {
		rep OfflineReport
		err error
	}
	offCh := make(chan offRes, 1)
	go func() {
		rep, err := s.server.RunOffline()
		offCh <- offRes{rep, err}
	}()
	cli, err := s.client.RunOffline()
	if err != nil {
		t.Fatal(err)
	}
	so := <-offCh
	if so.err != nil {
		t.Fatal(so.err)
	}
	return cli, so.rep
}

// online runs one inference on both parties, consuming a pre-compute.
func (s *session) online(t *testing.T, x []uint64) (out []uint64, cli, srv OnlineReport) {
	t.Helper()
	type onRes struct {
		rep OnlineReport
		err error
	}
	onCh := make(chan onRes, 1)
	go func() {
		rep, err := s.server.RunOnline()
		onCh <- onRes{rep, err}
	}()
	out, cli, err := s.client.RunOnline(x)
	if err != nil {
		t.Fatal(err)
	}
	sn := <-onCh
	if sn.err != nil {
		t.Fatal(sn.err)
	}
	return out, cli, sn.rep
}

func randomInput(f field.Field, n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint64, n)
	for i := range x {
		// Small positive activations, like quantized image pixels.
		x[i] = uint64(rng.Intn(16))
	}
	return x
}

func TestServerGarblerMatchesPlaintext(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, ServerGarbler, model, 0)
	x := randomInput(f, model.InputLen(), 3)
	got, _, _, _, _ := s.inferPrivately(t, x)
	want := model.Forward(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d: private %d, plaintext %d", i, got[i], want[i])
		}
	}
}

func TestClientGarblerMatchesPlaintext(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, ClientGarbler, model, 0)
	x := randomInput(f, model.InputLen(), 4)
	got, _, _, _, _ := s.inferPrivately(t, x)
	want := model.Forward(x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d: private %d, plaintext %d", i, got[i], want[i])
		}
	}
}

// TestInferenceAllocations: one demo-CNN inference, offline and online,
// both parties on a transport.Pipe, allocates at most 9 MiB under either
// variant (≈ 8.5 MB under Server-Garbler, ≈ 8.0 MB under Client-Garbler).
// A pre-compute's 1,581,056 B of garbled tables are held once a side: the
// garbler garbles into the frame it sends and the evaluator evaluates from
// the frame it received. Four copies made it 13.3 MB under Server-Garbler
// and 12.7 MB under Client-Garbler, and one copy more on either side
// crosses the bound (10.3 MB and 9.5 MB). The fewest bytes of three
// inferences, after one that warms the pipe and the pools: the runtime may
// allocate meanwhile.
func TestInferenceAllocations(t *testing.T) {
	model, err := nn.DemoCNN(field.New(field.P20), 5)
	if err != nil {
		t.Fatal(err)
	}
	x := randomInput(model.F, model.InputLen(), 6)
	for _, variant := range []Variant{ServerGarbler, ClientGarbler} {
		s := newSession(t, variant, model, 0)
		s.inferPrivately(t, x)
		least := uint64(1 << 63)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.inferPrivately(t, x)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 9<<20 {
			t.Fatalf("%v: a demo-CNN inference allocates %d bytes, want at most 9 MiB", variant, least)
		}
	}
}

func TestCNNBothVariants(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoCNN(f, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []Variant{ServerGarbler, ClientGarbler} {
		s := newSession(t, variant, model, 3)
		x := randomInput(f, model.InputLen(), 5)
		got, cliOff, srvOff, _, _ := s.inferPrivately(t, x)
		// Either garbler keeps one seed a ReLU layer.
		if variant == ServerGarbler && srvOff.GCStoreBytes != 32 {
			t.Fatalf("SG server stores %d bytes for a demo-CNN pre-compute, want 32", srvOff.GCStoreBytes)
		}
		if variant == ClientGarbler && cliOff.GCStoreBytes != 32 {
			t.Fatalf("CG client stores %d bytes for a demo-CNN pre-compute, want 32", cliOff.GCStoreBytes)
		}
		want := model.Forward(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v output %d: private %d, plaintext %d", variant, i, got[i], want[i])
			}
		}
		if nn.Argmax(f, got) != nn.Argmax(f, want) {
			t.Fatalf("%v: predicted class differs", variant)
		}
	}
}

func TestMultipleInferencesPerSession(t *testing.T) {
	// Base-OT setup and weight encoding amortize; each inference consumes
	// one pre-compute.
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, ServerGarbler, model, 0)
	for round := 0; round < 3; round++ {
		x := randomInput(f, model.InputLen(), int64(100+round))
		got, _, _, _, _ := s.inferPrivately(t, x)
		want := model.Forward(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d output %d: private %d, plaintext %d", round, i, got[i], want[i])
			}
		}
	}
}

// TestRunOnlineDropsConsumedPreCompute: RunOnline clears the FIFO slot of
// the pre-compute it consumes, on each endpoint, so the consumed state
// (secret seeds, masks, an evaluator's stored frames) is not kept
// reachable from the buffer's backing array until the next append.
func TestRunOnlineDropsConsumedPreCompute(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, ClientGarbler, model, 0)
	s.offline(t)
	s.offline(t)
	cliPres, srvPres := s.client.pres, s.server.pres
	s.online(t, randomInput(f, model.InputLen(), 100))
	if cliPres[0] != nil {
		t.Error("client RunOnline left its consumed pre-compute in the FIFO's backing array")
	}
	if srvPres[0] != nil {
		t.Error("server RunOnline left its consumed pre-compute in the FIFO's backing array")
	}
	if s.client.Buffered() != 1 || s.server.Buffered() != 1 || cliPres[1] == nil || srvPres[1] == nil {
		t.Fatal("RunOnline consumed more than the oldest pre-compute")
	}
}

func TestStorageShiftsToServer(t *testing.T) {
	// The Client-Garbler protocol's whole point (§5.1): GC storage moves
	// from client to server, and what the client keeps instead — its
	// precomputed OT state — stays at least 10× below what it gave up.
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 13)
	if err != nil {
		t.Fatal(err)
	}

	sg := newSession(t, ServerGarbler, model, 0)
	xin := randomInput(f, model.InputLen(), 8)
	_, sgCliOff, sgSrvOff, _, _ := sg.inferPrivately(t, xin)

	cg := newSession(t, ClientGarbler, model, 0)
	_, cgCliOff, cgSrvOff, _, _ := cg.inferPrivately(t, xin)

	// The evaluator stores every layer's public seed, tables and packed
	// decode bits, and under Server-Garbler the b and r labels it fetched
	// by OT; under Client-Garbler each party also holds its half of the
	// a-label OTs: the evaluator a row and a choice bit per OT. Either
	// garbler keeps one secret seed per layer, from which what it sends
	// online expands: a server garbler's a inputs' false labels, a client
	// garbler's pads; the offset is the OT's s.
	width := f.Bits()
	var circuits, fetched, evalOTs, seeds uint64
	for l, circ := range cg.server.circuits {
		units := cg.server.meta.Dims[l].Out
		ots := units * width
		circuits += uint64(gcLayerBytes(circ, units))
		fetched += uint64(units * 2 * width * ot.KeySize)
		evalOTs += uint64(ots*ot.KeySize + (ots+7)/8)
		seeds += garble.LabelSize
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"SG client", sgCliOff.GCStoreBytes, circuits + fetched},
		{"SG server", sgSrvOff.GCStoreBytes, seeds},
		{"SG server, demo MLP", sgSrvOff.GCStoreBytes, 32}, // two ReLU layers
		{"CG client", cgCliOff.GCStoreBytes, seeds},
		{"CG server", cgSrvOff.GCStoreBytes, circuits + evalOTs},
	} {
		if c.got != c.want {
			t.Errorf("%s stores %d bytes, want %d", c.name, c.got, c.want)
		}
	}
	if 10*cgCliOff.GCStoreBytes > sgCliOff.GCStoreBytes {
		t.Errorf("CG client stores %d, not 10× below the SG client's %d", cgCliOff.GCStoreBytes, sgCliOff.GCStoreBytes)
	}
	// Both variants run label OTs offline now, so both report their time.
	for _, rep := range []OfflineReport{sgCliOff, sgSrvOff, cgCliOff, cgSrvOff} {
		if rep.OTDuration <= 0 {
			t.Errorf("offline report %+v has no OT duration", rep)
		}
	}
}

func TestCommunicationAsymmetry(t *testing.T) {
	// SG offline is download-heavy for the client (GCs arrive); CG offline
	// is upload-heavy (GCs leave) — the asymmetry WSA exploits (§5.3).
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 17)
	if err != nil {
		t.Fatal(err)
	}
	sg := newSession(t, ServerGarbler, model, 0)
	x := randomInput(f, model.InputLen(), 12)
	_, sgCliOff, _, _, _ := sg.inferPrivately(t, x)
	if sgCliOff.BytesRecv <= sgCliOff.BytesSent {
		t.Errorf("SG offline: client recv %d should exceed sent %d", sgCliOff.BytesRecv, sgCliOff.BytesSent)
	}

	cg := newSession(t, ClientGarbler, model, 0)
	_, cgCliOff, _, _, _ := cg.inferPrivately(t, x)
	if cgCliOff.BytesSent <= cgCliOff.BytesRecv {
		t.Errorf("CG offline: client sent %d should exceed recv %d", cgCliOff.BytesSent, cgCliOff.BytesRecv)
	}
}

func TestOnlineCommunicationEqualAcrossVariants(t *testing.T) {
	// §6.1: "Client-Garbler increases online communication latency due to
	// OT (27.1 seconds to 101 seconds)" — in the paper the online OT sends
	// two masked labels per share bit where Server-Garbler sends one label.
	// Here the a-label OTs are precomputed and correlated, so an online
	// ReLU layer moves the same bytes under both variants: one 16-byte
	// label per share bit one way (SG's active labels, CG's z frame) and
	// one bit per share bit the other (SG's decoded outputs, CG's d frame).
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 19)
	if err != nil {
		t.Fatal(err)
	}
	sg := newSession(t, ServerGarbler, model, 0)
	x := randomInput(f, model.InputLen(), 14)
	_, _, _, sgCliOn, _ := sg.inferPrivately(t, x)

	cg := newSession(t, ClientGarbler, model, 0)
	_, _, _, cgCliOn, _ := cg.inferPrivately(t, x)

	sgTotal := sgCliOn.BytesSent + sgCliOn.BytesRecv
	cgTotal := cgCliOn.BytesSent + cgCliOn.BytesRecv
	if cgTotal != sgTotal {
		t.Errorf("CG online total %d, want SG's %d", cgTotal, sgTotal)
	}
	// And the garbler-side upload dominates CG's online traffic: the
	// client ships one masked label per OT.
	if cgCliOn.BytesSent <= cgCliOn.BytesRecv {
		t.Errorf("CG client online sent %d should exceed recv %d", cgCliOn.BytesSent, cgCliOn.BytesRecv)
	}
}

func TestMetaValidation(t *testing.T) {
	bad := ModelMeta{P: field.P17, Dims: []LayerDim{{In: 4, Out: 3}, {In: 5, Out: 2}}, Shifts: []uint{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched dims must be rejected")
	}
	empty := ModelMeta{P: field.P17}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty meta must be rejected")
	}
	// A shift at or past the field width would index the ReLU circuit's
	// wires out of range; 1<<63 turns negative as an int.
	width := uint(field.New(field.P17).Bits())
	for _, shift := range []uint{width, 1 << 63} {
		wide := ModelMeta{P: field.P17, Dims: []LayerDim{{In: 4, Out: 3}, {In: 3, Out: 2}}, Shifts: []uint{shift}}
		if err := wide.Validate(); err == nil {
			t.Fatalf("shift %d over a %d-bit field must be rejected", shift, width)
		}
		wide.Shifts[0] = width - 1
		if err := wide.Validate(); err != nil {
			t.Fatalf("shift %d over a %d-bit field rejected: %v", width-1, width, err)
		}
	}
}

// TestValidateBoundsGateBase: the metadata gateBase's uniqueness rests on
// is checked, not assumed. A ReLU layer of 2^22 units and 2^19 ReLU layers
// are refused (the last linear layer, which has no ReLU, may be wider), and
// a refused shape is refused before anything is built for it: NewClient
// on a 2^22-unit layer allocates no more than its error.
func TestValidateBoundsGateBase(t *testing.T) {
	layers := func(n int) ModelMeta {
		m := ModelMeta{P: field.P17, Dims: make([]LayerDim, n), Shifts: make([]uint, n-1)}
		for i := range m.Dims {
			m.Dims[i] = LayerDim{In: 1, Out: 1}
		}
		return m
	}
	for _, c := range []struct {
		name string
		meta ModelMeta
		ok   bool
	}{
		{"2^22 ReLU units", ModelMeta{P: field.P17, Dims: []LayerDim{{In: 4, Out: 1 << 22}, {In: 1 << 22, Out: 2}}, Shifts: []uint{1}}, false},
		{"2^22 - 1 ReLU units", ModelMeta{P: field.P17, Dims: []LayerDim{{In: 4, Out: 1<<22 - 1}, {In: 1<<22 - 1, Out: 2}}, Shifts: []uint{1}}, true},
		{"2^22 outputs", ModelMeta{P: field.P17, Dims: []LayerDim{{In: 4, Out: 3}, {In: 3, Out: 1 << 22}}, Shifts: []uint{1}}, true},
		{"2^19 ReLU layers", layers(1<<19 + 1), false},
		{"2^19 - 1 ReLU layers", layers(1 << 19), true},
	} {
		if err := c.meta.Validate(); (err == nil) != c.ok {
			t.Fatalf("%s: Validate returned %v, want ok %v", c.name, err, c.ok)
		}
	}
	wide := ModelMeta{P: field.P20, Dims: []LayerDim{{In: 4, Out: 1 << 22}, {In: 1 << 22, Out: 2}}, Shifts: []uint{1}}
	cfg := Config{Variant: ClientGarbler, HEParams: heParams(field.P20)}
	// The fewest bytes of three tries: the runtime may allocate meanwhile.
	least := uint64(1 << 63)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewClient(nil, cfg, wide, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("NewClient accepted a 2^22-unit ReLU layer")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4<<10 {
		t.Fatalf("NewClient refused a 2^22-unit ReLU layer after %d bytes allocated, want at most 4 KiB", least)
	}
}

func TestConfigFieldMismatch(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 23)
	if err != nil {
		t.Fatal(err)
	}
	params := heParams(field.P17) // wrong field
	cfg := Config{Variant: ServerGarbler, HEParams: params}
	cc, sc := transport.Pipe()
	if _, err := newTestServer(sc, cfg, model, nil); err == nil {
		t.Error("server must reject mismatched HE field")
	}
	if _, err := NewClient(cc, cfg, MetaOf(model), nil); err == nil {
		t.Error("client must reject mismatched HE field")
	}
}

func TestOnlineRejectsWrongInputLength(t *testing.T) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 29)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, ServerGarbler, model, 0)
	// Run offline legitimately first.
	offCh := make(chan error, 1)
	go func() {
		_, err := s.server.RunOffline()
		offCh <- err
	}()
	if _, err := s.client.RunOffline(); err != nil {
		t.Fatal(err)
	}
	if err := <-offCh; err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.client.RunOnline(make([]uint64, 3)); err == nil {
		t.Fatal("wrong input length must be rejected")
	}
}

func BenchmarkDelphiOfflineMLP(b *testing.B) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 31)
	if err != nil {
		b.Fatal(err)
	}
	params := heParams(f.P())
	cfg := Config{Variant: ServerGarbler, HEParams: params}
	cc, sc := transport.Pipe()
	server, _ := newTestServer(sc, cfg, model, newSeeded(41))
	client, _ := NewClient(cc, cfg, MetaOf(model), newSeeded(42))
	done := make(chan error, 1)
	go func() { done <- server.Setup() }()
	if err := client.Setup(); err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := make(chan error, 1)
		go func() {
			_, err := server.RunOffline()
			ch <- err
		}()
		if _, err := client.RunOffline(); err != nil {
			b.Fatal(err)
		}
		if err := <-ch; err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		// Consume the pre-compute so the next offline starts clean.
		onCh := make(chan error, 1)
		go func() {
			_, err := server.RunOnline()
			onCh <- err
		}()
		x := make([]uint64, model.InputLen())
		if _, _, err := client.RunOnline(x); err != nil {
			b.Fatal(err)
		}
		if err := <-onCh; err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkDelphiOnlineMLP(b *testing.B) {
	f := field.New(field.P20)
	model, err := nn.DemoMLP(f, 37)
	if err != nil {
		b.Fatal(err)
	}
	params := heParams(f.P())
	for _, variant := range []Variant{ServerGarbler, ClientGarbler} {
		b.Run(variant.String(), func(b *testing.B) {
			cfg := Config{Variant: variant, HEParams: params}
			cc, sc := transport.Pipe()
			server, _ := newTestServer(sc, cfg, model, newSeeded(51))
			client, _ := NewClient(cc, cfg, MetaOf(model), newSeeded(52))
			done := make(chan error, 1)
			go func() { done <- server.Setup() }()
			if err := client.Setup(); err != nil {
				b.Fatal(err)
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			x := make([]uint64, model.InputLen())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				offCh := make(chan error, 1)
				go func() {
					_, err := server.RunOffline()
					offCh <- err
				}()
				if _, err := client.RunOffline(); err != nil {
					b.Fatal(err)
				}
				if err := <-offCh; err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				onCh := make(chan error, 1)
				go func() {
					_, err := server.RunOnline()
					onCh <- err
				}()
				if _, _, err := client.RunOnline(x); err != nil {
					b.Fatal(err)
				}
				if err := <-onCh; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPinnedLabelsExpandFromSeed: every label an evaluator holds for a
// unit is the garbler's active label of its value under offset s: the
// ones it expands from each layer's public seed (const-one and, under
// Client-Garbler, every unit's b and r bits), the OT rows it holds under
// Server-Garbler (b and r, pinned to the garbler's rows), and the a labels
// of the online leg (direct under Server-Garbler, the derandomized OT
// under Client-Garbler), so that every unit evaluates to the circuit's
// plaintext output on random values. No seeded label is s or an a input's
// false label (as it would be, were the public seed the secret one), and
// each layer's public seed is fresh: distinct across layers and across two
// garblings on one entropy stream.
func TestPinnedLabelsExpandFromSeed(t *testing.T) {
	model, err := nn.DemoMLP(field.New(field.P20), 3)
	if err != nil {
		t.Fatal(err)
	}
	params := heParams(model.F.P())
	shared, err := NewSharedModel(params, model)
	if err != nil {
		t.Fatal(err)
	}
	width := model.F.Bits()
	rng := rand.New(rand.NewSource(12))
	for _, variant := range []Variant{ServerGarbler, ClientGarbler} {
		cfg := Config{Variant: variant, HEParams: params}
		gc, ec := transport.Pipe()
		garbler, err := NewClient(gc, cfg, MetaOf(model), newSeeded(8))
		if err != nil {
			t.Fatal(err)
		}
		evaluator, err := NewServerShared(ec, cfg, shared, newSeeded(9))
		if err != nil {
			t.Fatal(err)
		}
		both(t, func() error { return garbler.setupOT(true, nil, nil) }, func() error { return evaluator.setupOT(false, nil, nil) })
		delta := garbler.otSend.Delta()
		seen := map[[garble.LabelSize]byte]bool{}
		for round := 0; round < 2; round++ {
			var own [][]uint64
			for l := range garbler.circuits {
				vals := make([]uint64, 2*garbler.meta.Dims[l].Out)
				for i := range vals {
					vals[i] = rng.Uint64() % model.F.P()
				}
				own = append(own, vals)
			}
			garblerOwn, evaluatorOwn := own, [][]uint64(nil)
			if variant == ServerGarbler {
				garblerOwn, evaluatorOwn = nil, own
			}
			var gpre, epre gcPre
			both(t, func() error { return garbler.offlineGC(&gpre, true, garblerOwn, new(OfflineReport)) },
				func() error { return evaluator.offlineGC(&epre, false, evaluatorOwn, new(OfflineReport)) })
			for l, st := range epre.stored {
				seed := [garble.LabelSize]byte(st.frame)
				if seen[seed] {
					t.Fatalf("%v round %d layer %d: public seed reused", variant, round, l)
				}
				seen[seed] = true
				units := garbler.meta.Dims[l].Out
				raw := make([]byte, units*len(garbler.pinned)*garble.LabelSize)
				garble.ExpandSeed(raw, seed)
				// The a inputs' false labels under Server-Garbler, the pads
				// y under Client-Garbler: the secret stream's prefix.
				secret := map[garble.Label]bool{delta: true}
				prefix := make([]byte, units*width*garble.LabelSize)
				garble.ExpandSeed(prefix, gpre.seeds[l])
				for i := 0; i < len(prefix); i += garble.LabelSize {
					secret[garble.Label(prefix[i:])] = true
				}
				for i := 0; i < len(raw); i += garble.LabelSize {
					if secret[garble.Label(raw[i:])] {
						t.Fatalf("%v layer %d: the public seed expands to a secret label", variant, l)
					}
				}
				a := make([]uint64, units)
				for u := range a {
					a[u] = rng.Uint64() % model.F.P()
				}
				var aLabels []garble.Label
				var aFrame []byte
				if variant == ServerGarbler {
					both(t, func() error { return garbler.sendActive(gpre.seeds[l], a) },
						func() (err error) { aFrame, err = evaluator.conn.Recv(); return })
				} else {
					both(t, func() error { return garbler.otSend.SendPrecomputed(gpre.sendOTs[l], prefix) },
						func() (err error) {
							aLabels, err = evaluator.otRecv.ReceivePrecomputed(epre.recvOTs[l], valueBits(a, width))
							return
						})
				}
				got, err := evaluator.evaluateLayer(&epre, l, aLabels, aFrame)
				if err != nil {
					t.Fatal(err)
				}
				circ := garbler.circuits[l]
				for u := range a {
					in := append([]bool{true}, valueBits([]uint64{a[u], own[l][2*u], own[l][2*u+1]}, width)...)
					want, unit := circ.Eval(in), got[u*len(circ.Outputs):(u+1)*len(circ.Outputs)]
					if !reflect.DeepEqual(unit, want) {
						t.Fatalf("%v round %d layer %d unit %d: garbled output differs from the plaintext circuit's", variant, round, l, u)
					}
				}
			}
		}
	}
}

// both runs the garbler's step f on a goroutine and the evaluator's g here.
func both(t *testing.T, f, g func() error) {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- f() }()
	if err := g(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestPrecomputesHashUnderOwnKeys: each pre-compute garbles under the key
// its session nonce and index name (hashKey), and under no other: the
// keys differ across indices and nonces, and an evaluator that keys a
// session's second pre-compute with another index or another nonce than
// its garbler's decodes another output, under either variant.
func TestPrecomputesHashUnderOwnKeys(t *testing.T) {
	seen := map[garble.Label]string{}
	for _, k := range []struct {
		nonce string
		index uint64
	}{{"", 0}, {"", 1}, {"", 1 << 32}, {"a", 0}, {"a", 1}, {"b", 0}, {"ab", 0}} {
		var nonce []byte
		if k.nonce != "" {
			nonce = []byte(k.nonce)
		}
		h := hashKey(nonce, k.index)
		out := h.Hash(garble.Label{}, 0)
		if prev, dup := seen[out]; dup {
			t.Fatalf("nonce %q index %d hashes like %s", k.nonce, k.index, prev)
		}
		seen[out] = fmt.Sprintf("nonce %q index %d", k.nonce, k.index)
	}

	model, err := nn.DemoMLP(field.New(field.P20), 5)
	if err != nil {
		t.Fatal(err)
	}
	x := randomInput(model.F, model.InputLen(), 6)
	want := model.Forward(x)
	for _, variant := range []Variant{ServerGarbler, ClientGarbler} {
		for _, wrong := range []string{"", "index", "nonce"} {
			s := newSession(t, variant, model, 0)
			evaluator := &s.client.party
			if variant == ClientGarbler {
				evaluator = &s.server.party
			}
			if wrong == "nonce" {
				evaluator.nonce = []byte("another session")
			}
			s.offline(t)
			if wrong == "index" {
				evaluator.precomputes = 2 // the garbler's next pre-compute is its index 1
			}
			s.offline(t)
			s.online(t, x)
			got, _, _ := s.online(t, x)
			if same := reflect.DeepEqual(got, want); same != (wrong == "") {
				t.Fatalf("%v, evaluated under the wrong %q: output matches plaintext %v", variant, wrong, same)
			}
		}
	}
}
