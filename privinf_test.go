package privinf

import (
	"math/rand"
	"testing"
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

func TestRunLocalInferenceVerifies(t *testing.T) {
	model, err := NewDemoMLP(1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]uint64, model.InputLen())
	for i := range x {
		x[i] = uint64(i % 13)
	}
	res, err := RunLocalInference(model, ServerGarbler, x, newSeeded(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("private inference did not verify against plaintext")
	}
	if res.Predicted < 0 || res.Predicted >= model.OutputLen() {
		t.Fatalf("predicted class %d out of range", res.Predicted)
	}
	if res.ClientOffline.BytesRecv == 0 || res.ServerOffline.BytesRecv == 0 {
		t.Error("offline reports should record traffic")
	}
}

func TestRunLocalInferenceClientGarbler(t *testing.T) {
	model, err := NewDemoMLP(3)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]uint64, model.InputLen())
	res, err := RunLocalInference(model, ClientGarbler, x, newSeeded(4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("client-garbler inference did not verify")
	}
	sg, err := RunLocalInference(model, ServerGarbler, x, newSeeded(4))
	if err != nil {
		t.Fatal(err)
	}
	// The storage burden sits on the server under Client-Garbler: the
	// circuits a Server-Garbler client stores, less the b and r labels that
	// client fetched by OT (two 16-byte labels an a-label OT's worth, which
	// the server expands from each layer's seed instead), plus a 16-byte pad
	// and a choice bit per precomputed label OT. The client keeps of its
	// half of those OTs one 16-byte secret seed per ReLU layer, from which
	// its answer's pads expand again.
	var server, fetched, client uint64
	for _, l := range model.Linear[:len(model.Linear)-1] {
		ots := uint64(l.Out() * model.F.Bits())
		server += 16*ots + (ots+7)/8
		fetched += 2 * 16 * ots
		client += 16
	}
	if got, want := res.ServerOffline.GCStoreBytes, sg.ClientOffline.GCStoreBytes-fetched+server; got != want {
		t.Errorf("Client-Garbler server stores %d bytes, want %d", got, want)
	}
	if got, want := res.ClientOffline.GCStoreBytes, client; got != want {
		t.Errorf("Client-Garbler client stores %d bytes, want %d", got, want)
	}
}

func TestCharacterizeBaselineVsProposed(t *testing.T) {
	a, err := NewArchitecture("ResNet-18", TinyImageNet)
	if err != nil {
		t.Fatal(err)
	}
	base := Characterize(BaselineScenario(a))
	prop := Characterize(ProposedScenario(a))
	// The headline claim: 1.8x total PI speedup.
	speedup := base.Total() / prop.Total()
	if speedup < 1.6 || speedup > 2.2 {
		t.Errorf("total speedup %.2fx, want ~1.8-2x", speedup)
	}
	if prop.Online() >= base.Online() {
		t.Errorf("proposed online %.0f should beat baseline %.0f", prop.Online(), base.Online())
	}
}

func TestSimulateWorkload(t *testing.T) {
	a, err := NewArchitecture("ResNet-18", TinyImageNet)
	if err != nil {
		t.Fatal(err)
	}
	b := Characterize(ProposedScenario(a))
	cfg := WorkloadConfig{
		OfflineSeconds:         b.Offline(),
		OnDemandOfflineSeconds: b.Offline(),
		OnlineSeconds:          b.Online(),
		Capacity:               1,
		MaxConcurrent:          1,
		ArrivalsPerMinute:      1.0 / 120,
	}
	st, err := SimulateWorkload(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 {
		t.Fatal("no requests simulated")
	}
	if st.MeanLatency < b.Online()*0.9 {
		t.Errorf("latency %.0f below the online floor %.0f", st.MeanLatency, b.Online())
	}
}

func TestNewArchitectureErrors(t *testing.T) {
	if _, err := NewArchitecture("LeNet", CIFAR100); err == nil {
		t.Fatal("unknown architecture must error")
	}
}
