package sim

import (
	"math"
	"testing"

	"privinf/internal/cost"
	"privinf/internal/device"
)

func mcBase() Config {
	s := proposedScenario()
	rlp := s.RLPBreakdown()
	return Config{
		Clients:           9,
		Capacity:          1, // 16 GB each
		OfflineSeconds:    rlp.Offline(),
		MaxConcurrent:     device.EPYC.Cores,
		OnlineSeconds:     s.Compute().Online(),
		ArrivalsPerMinute: 1.0 / 360,
		Seed:              5,
	}
}

func TestMultiClientValidation(t *testing.T) {
	bad := mcBase()
	bad.Clients = -1
	if _, err := Run(bad); err == nil {
		t.Error("negative clients must be rejected")
	}
	bad = mcBase()
	bad.MaxConcurrent = -1
	if _, err := Run(bad); err == nil {
		t.Error("negative server pipelines must be rejected")
	}
	bad = mcBase()
	bad.OfflineSeconds = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero offline must be rejected")
	}
}

// TestOneClientQueuesLikeFigure7 runs MultiClientStudy's workload at one
// client and pins its latency split to the single-client simulator's before
// the two were merged: a request's queue wait ends when it is its client's
// oldest queued request and the server is free, so the waits behind earlier
// requests of the same client read as queue (Figure 7's queue column), not
// as offline.
func TestOneClientQueuesLikeFigure7(t *testing.T) {
	cases := []struct {
		perMin                  float64
		latency, queue, offline float64
	}{
		{1.0 / 180, 1439.5264607452484, 263.7689303414929, 1059.014822524813},
		{1.0 / 90, 2244.1627433437693, 763.7217196970728, 1363.698315767755},
	}
	for _, c := range cases {
		cfg := mcBase()
		cfg.Clients = 1
		cfg.Seed = 777
		cfg.ArrivalsPerMinute = c.perMin
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			name      string
			got, want float64
		}{
			{"MeanLatency", st.MeanLatency, c.latency},
			{"MeanQueueWait", st.MeanQueueWait, c.queue},
			{"MeanOffline", st.MeanOffline, c.offline},
		} {
			if math.Abs(v.got-v.want) > 1e-9*v.want {
				t.Errorf("1/%.0f per min: %s %v s, want %v s", 1/c.perMin, v.name, v.got, v.want)
			}
		}
	}
}

func TestMultiClientLowRate(t *testing.T) {
	cfg := mcBase()
	st, err := RunMany(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 {
		t.Fatal("no requests")
	}
	// At one request per six hours per client, buffers usually refill
	// between same-client requests; Poisson clustering still exposes the
	// ~3000 s single-core pipeline on ~13%% of requests, so the mean sits
	// a few multiples above the online floor.
	if st.MeanLatency > cfg.OnlineSeconds*5 {
		t.Errorf("low-rate multi-client latency %.0f, want near %.0f", st.MeanLatency, cfg.OnlineSeconds)
	}
}

// TestMultiClientMatchesPaperClaim checks §5.2's discussion: 9 clients with
// 16 GB each let the server exploit RLP and sustain roughly the aggregate
// throughput of the 144 GB single-client case, while each client's latency
// stays similar to the single-client 16 GB (capacity 1) experience.
func TestMultiClientMatchesPaperClaim(t *testing.T) {
	s := proposedScenario()
	rlpOffline := s.RLPBreakdown().Offline()
	online := s.Compute().Online()

	perClientRate := 1.0 / 90 // each client: one request every 90 min
	mc := mcBase()
	mc.ArrivalsPerMinute = perClientRate
	mcStats, err := RunMany(mc, 5)
	if err != nil {
		t.Fatal(err)
	}

	// Aggregate arrival rate = 9/90 per minute = one per 10 min, beyond
	// what a single 16 GB client (one LPHE pipeline, one per ~15.6 min)
	// sustains — yet the shared-server system absorbs it because nine RLP
	// pipelines run concurrently.
	aggregate := float64(mc.Clients) * perClientRate
	production := mc.SustainableRatePerMinute()
	if production < aggregate {
		t.Fatalf("test premise broken: production %.3f/min < arrivals %.3f/min", production, aggregate)
	}
	if online*aggregate/60 > 1 {
		t.Fatalf("test premise broken: online service saturated")
	}
	// Mean latency should stay bounded (not queue-exploded): at worst an
	// online phase plus a pipeline's worth of offline wait.
	if mcStats.MeanLatency > rlpOffline+2*online {
		t.Errorf("multi-client latency %.0f s exploded (pipeline %.0f s)", mcStats.MeanLatency, rlpOffline)
	}

	// A single 16 GB client under the SAME aggregate rate collapses:
	// its lone pipeline cannot keep up.
	single := FromScenario(s, 16*int64(cost.GB), LPHE, device.Atom)
	single.ArrivalsPerMinute = aggregate
	single.Seed = 5
	sStats, err := RunMany(single, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sStats.MeanLatency < 5*mcStats.MeanLatency {
		t.Errorf("single client at aggregate rate %.0f s should be far above multi-client %.0f s",
			sStats.MeanLatency, mcStats.MeanLatency)
	}
}

func TestMultiClientDeterministic(t *testing.T) {
	cfg := mcBase()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same seed must reproduce")
	}
}

func TestMultiClientFairRefill(t *testing.T) {
	// With fewer server slots than clients, production must still reach
	// every client eventually: run at moderate rate and confirm requests
	// from all clients complete.
	cfg := mcBase()
	cfg.Clients = 6
	cfg.MaxConcurrent = 2
	cfg.ArrivalsPerMinute = 1.0 / 240
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests < cfg.Clients {
		t.Errorf("only %d requests completed across %d clients", st.Requests, cfg.Clients)
	}
}
