package sim

import (
	"math"
	"testing"

	"privinf/internal/cost"
	"privinf/internal/device"
	"privinf/internal/nn"
)

func TestEngineOrdering(t *testing.T) {
	e := &Engine{}
	var order []int
	e.Schedule(5, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(3, func() { order = append(order, 2) })
	// Equal timestamps preserve scheduling order.
	e.Schedule(5, func() { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("final time %f, want 5", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := &Engine{}
	hits := 0
	e.Schedule(1, func() {
		e.Schedule(1, func() { hits++ })
	})
	e.Run()
	if hits != 1 || e.Now() != 2 {
		t.Fatalf("hits=%d now=%f", hits, e.Now())
	}
}

func baseCfg() Config {
	return Config{
		OfflineSeconds:         900,
		OnDemandOfflineSeconds: 900,
		OnlineSeconds:          100,
		Capacity:               2,
		MaxConcurrent:          1,
		ArrivalsPerMinute:      1.0 / 120, // one per two hours
		HorizonSeconds:         DefaultHorizon,
		Seed:                   1,
	}
}

func TestLowRateLatencyIsOnlineOnly(t *testing.T) {
	// At near-zero arrival rates the buffer is always full and latency is
	// purely online (Figure 7 far left).
	cfg := baseCfg()
	cfg.ArrivalsPerMinute = 1.0 / 180
	st, err := RunMany(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 {
		t.Fatal("no requests simulated")
	}
	if st.MeanLatency > cfg.OnlineSeconds*1.05 {
		t.Errorf("low-rate latency %.1f, want ~%.0f (online only)", st.MeanLatency, cfg.OnlineSeconds)
	}
	if st.MeanQueueWait > 1 {
		t.Errorf("low-rate queue wait %.1f, want ~0", st.MeanQueueWait)
	}
}

func TestStatsLatencyQuantiles(t *testing.T) {
	// P50/P99 come off the obs histogram: at a low rate the typical
	// request is online-only, so the median sits at the (constant)
	// online time within the histogram's 6.25% bucket error — while the
	// p99 is free to catch the rare arrival collision the mean hides.
	cfg := baseCfg()
	cfg.ArrivalsPerMinute = 1.0 / 180
	st, err := RunMany(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.P50Latency < cfg.OnlineSeconds || st.P50Latency > cfg.OnlineSeconds*1.0625*1.05 {
		t.Errorf("low-rate p50 latency %.2f s, want ~%.2f s (online only)", st.P50Latency, cfg.OnlineSeconds)
	}
	if st.P99Latency < st.P50Latency {
		t.Errorf("p99 %.2f s below p50 %.2f s", st.P99Latency, st.P50Latency)
	}

	cfg.ArrivalsPerMinute = 1.0 / 30 // offline waits stretch the tail
	st, err = RunMany(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.P99Latency <= st.P50Latency {
		t.Errorf("loaded p99 %.2f s not above p50 %.2f s", st.P99Latency, st.P50Latency)
	}
	if st.P50Latency > st.MeanLatency*1.0625 && st.P99Latency < st.MeanLatency {
		t.Errorf("quantiles p50=%.2f p99=%.2f do not bracket mean %.2f", st.P50Latency, st.P99Latency, st.MeanLatency)
	}
}

func TestOverloadGrowsQueue(t *testing.T) {
	// Above the sustainable rate the queue dominates latency (Figure 7
	// right side).
	cfg := baseCfg()
	cfg.ArrivalsPerMinute = 1.0 / 5 // one per 5 min vs 15 min service floor
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanQueueWait < 10*cfg.OnlineSeconds {
		t.Errorf("overload queue wait %.1f too small", st.MeanQueueWait)
	}
	if st.MeanLatency < st.MeanQueueWait {
		t.Errorf("latency %.1f must include queue wait %.1f", st.MeanLatency, st.MeanQueueWait)
	}
}

func TestZeroCapacityPaysOfflineInline(t *testing.T) {
	cfg := baseCfg()
	cfg.Capacity = 0
	cfg.ArrivalsPerMinute = 1.0 / 180
	st, err := RunMany(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.OnDemandOfflineSeconds + cfg.OnlineSeconds
	if st.MeanLatency < want*0.95 {
		t.Errorf("zero-capacity latency %.1f, want >= %.1f", st.MeanLatency, want)
	}
	if st.MeanOffline < cfg.OnDemandOfflineSeconds*0.95 {
		t.Errorf("offline component %.1f, want ~%.0f", st.MeanOffline, cfg.OnDemandOfflineSeconds)
	}
}

func TestIntermediateRateExposesOfflineWait(t *testing.T) {
	// When arrivals outpace the refill rate but not service entirely,
	// requests wait on pre-computes (Figure 7 middle: offline component).
	cfg := baseCfg()
	cfg.ArrivalsPerMinute = 60.0 / cfg.OfflineSeconds * 1.2 // 20% above refill
	st, err := RunMany(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanOffline < 1 {
		t.Errorf("expected nonzero offline wait, got %.2f", st.MeanOffline)
	}
}

func TestMonotoneInArrivalRate(t *testing.T) {
	cfg := baseCfg()
	prev := -1.0
	for _, perMin := range []float64{1.0 / 120, 1.0 / 60, 1.0 / 30, 1.0 / 18, 1.0 / 15} {
		cfg.ArrivalsPerMinute = perMin
		st, err := RunMany(cfg, 8)
		if err != nil {
			t.Fatal(err)
		}
		if st.MeanLatency < prev*0.9 {
			t.Errorf("mean latency should not fall materially with load: %.1f after %.1f at rate %v",
				st.MeanLatency, prev, perMin)
		}
		if st.MeanLatency > prev {
			prev = st.MeanLatency
		}
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	cfg := baseCfg()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different stats: %+v vs %+v", a, b)
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds should differ")
	}
}

func TestPoissonArrivalCount(t *testing.T) {
	cfg := baseCfg()
	cfg.ArrivalsPerMinute = 0.5
	cfg.HorizonSeconds = 24 * 3600
	cfg.Capacity = 1
	cfg.OfflineSeconds = 1
	cfg.OnDemandOfflineSeconds = 1
	cfg.OnlineSeconds = 1
	st, err := RunMany(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	expect := 0.5 * 60 * 24 * 20 // rate * minutes * runs
	if math.Abs(float64(st.Requests)-expect)/expect > 0.05 {
		t.Errorf("requests %d, want ~%.0f", st.Requests, expect)
	}
}

func TestSustainableRate(t *testing.T) {
	cfg := baseCfg()
	// Offline 900 s, one pipeline -> 1/15 min; online 100 s -> 0.6/min.
	if got := cfg.SustainableRatePerMinute(); math.Abs(got-60.0/900) > 1e-9 {
		t.Errorf("sustainable %.4f, want %.4f", got, 60.0/900)
	}
	cfg.MaxConcurrent = 4
	if got := cfg.SustainableRatePerMinute(); math.Abs(got-60.0*2/900) > 1e-9 {
		// Capacity 2 caps concurrency at 2.
		t.Errorf("sustainable %.4f, want %.4f", got, 60.0*2/900)
	}
	cfg.Clients, cfg.Capacity = 9, 1
	if got := cfg.SustainableRatePerMinute(); math.Abs(got-60.0*4/900) > 1e-9 {
		// Nine one-slot buffers: the four pipelines cap concurrency.
		t.Errorf("9-client sustainable %.4f, want %.4f", got, 60.0*4/900)
	}
	cfg.Capacity = 0
	if got := cfg.SustainableRatePerMinute(); math.Abs(got-60.0/1000) > 1e-9 {
		t.Errorf("zero-capacity sustainable %.4f, want %.4f", got, 60.0/1000)
	}
}

func TestValidation(t *testing.T) {
	bad := baseCfg()
	bad.OnlineSeconds = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero online duration must be rejected")
	}
	bad = baseCfg()
	bad.ArrivalsPerMinute = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero arrival rate must be rejected")
	}
	bad = baseCfg()
	bad.Capacity = 0
	bad.OnDemandOfflineSeconds = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero on-demand offline must be rejected when capacity is 0")
	}
}

func proposedScenario() cost.Scenario {
	return cost.Scenario{
		Arch:    nn.NewResNet18(nn.TinyImageNet),
		Proto:   cost.ClientGarbler,
		Client:  device.Atom,
		Server:  device.EPYC,
		LinkBps: 1e9,
		LPHE:    true,
	}
}

// TestFromScenarioMatchesPaper pins the derived simulation parameters
// against §5.2: LPHE pre-compute every ~939 s, RLP pipelines of ~3013 s,
// and end-to-end 1053 s at 8 GB.
func TestFromScenarioMatchesPaper(t *testing.T) {
	s := proposedScenario()
	lphe := FromScenario(s, 16*int64(cost.GB), LPHE, device.Atom)
	if lphe.Capacity != 1 || lphe.MaxConcurrent != 1 {
		t.Errorf("LPHE@16GB: capacity %d concurrent %d, want 1/1", lphe.Capacity, lphe.MaxConcurrent)
	}
	if math.Abs(lphe.OfflineSeconds-939)/939 > 0.02 {
		t.Errorf("LPHE offline %.0f, want ~939", lphe.OfflineSeconds)
	}

	rlp := FromScenario(s, 140*int64(cost.GB), RLP, device.Atom)
	if rlp.Capacity != 17 {
		t.Errorf("RLP@140GB capacity %d, want 17", rlp.Capacity)
	}
	if rlp.MaxConcurrent != 4 {
		t.Errorf("RLP concurrency %d, want 4 (Atom cores)", rlp.MaxConcurrent)
	}
	if math.Abs(rlp.OfflineSeconds-3013)/3013 > 0.02 {
		t.Errorf("RLP offline %.0f, want ~3013", rlp.OfflineSeconds)
	}

	zero := FromScenario(s, 8*int64(cost.GB), LPHE, device.Atom)
	if zero.Capacity != 0 {
		t.Errorf("LPHE@8GB capacity %d, want 0", zero.Capacity)
	}
	total := zero.OnDemandOfflineSeconds + zero.OnlineSeconds
	if math.Abs(total-1053)/1053 > 0.02 {
		t.Errorf("8GB end-to-end %.0f, want ~1053", total)
	}
}

// TestLPHEvsRLPCrossover reproduces Figure 10's qualitative result: with
// scarce storage LPHE sustains higher rates; with 140 GB RLP's pre-compute
// throughput wins.
func TestLPHEvsRLPCrossover(t *testing.T) {
	s := proposedScenario()
	atLow := func(mode Mode) float64 {
		return FromScenario(s, 16*int64(cost.GB), mode, device.Atom).SustainableRatePerMinute()
	}
	atHigh := func(mode Mode) float64 {
		return FromScenario(s, 140*int64(cost.GB), mode, device.Atom).SustainableRatePerMinute()
	}
	if atLow(LPHE) <= atLow(RLP) {
		t.Errorf("16GB: LPHE %.4f should sustain more than RLP %.4f", atLow(LPHE), atLow(RLP))
	}
	if atHigh(RLP) <= atHigh(LPHE) {
		t.Errorf("140GB: RLP %.4f should sustain more than LPHE %.4f", atHigh(RLP), atHigh(LPHE))
	}
}

// TestFig12Shape: the proposed protocol at 16 GB beats Server-Garbler at
// 64 GB across rates (Figure 12f).
func TestFig12Shape(t *testing.T) {
	proposed := FromScenario(proposedScenario(), 16*int64(cost.GB), LPHE, device.Atom)

	sgScn := cost.Scenario{
		Arch:       nn.NewResNet18(nn.TinyImageNet),
		Proto:      cost.ServerGarbler,
		Client:     device.Atom,
		Server:     device.EPYC,
		LinkBps:    1e9,
		UploadFrac: 0.5,
	}
	sgB := sgScn.Compute()
	sg := Config{
		OfflineSeconds:         sgB.Offline(),
		OnDemandOfflineSeconds: sgB.Offline(),
		OnlineSeconds:          sgB.Online(),
		Capacity:               sgScn.BufferCapacity(64*int64(cost.GB), 0),
		MaxConcurrent:          1,
		HorizonSeconds:         DefaultHorizon,
	}

	for _, perMin := range []float64{1.0 / 100, 1.0 / 54, 1.0 / 36} {
		p, s := proposed, sg
		p.ArrivalsPerMinute, s.ArrivalsPerMinute = perMin, perMin
		p.Seed, s.Seed = 9, 9
		pst, err := RunMany(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		sst, err := RunMany(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		if pst.MeanLatency >= sst.MeanLatency {
			t.Errorf("rate 1/%.0f min: proposed %.0f s not below SG %.0f s",
				1/perMin, pst.MeanLatency, sst.MeanLatency)
		}
	}
}
