package main

import (
	"fmt"
	"io"
	"time"

	"privinf/internal/fleet"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

// layerMetrics produces every per-layer metric of a traced run: the traced
// window's sessions, the engines' and router's own counters, the delphi
// harness, the kernel ladder and the transport probe. plain is the untraced
// half-window run just before, the reference for the tracing overhead.
func layerMetrics(e *env, g *generator, plain, traced *results, tr *tracer, sc scale, nttFwdUs float64, stdout io.Writer) (map[string]float64, error) {
	h, err := runHarness(e, g, tr, sc)
	if err != nil {
		return nil, err
	}
	ld, err := replayLadder(e, h, g.rng, tr, sc)
	if err != nil {
		return nil, err
	}
	rttUs, mbPerS, err := transportProbe()
	if err != nil {
		return nil, fmt.Errorf("transport probe: %w", err)
	}
	routerUs, err := routerOverheadUs(e, sc.routerProbes)
	if err != nil {
		return nil, fmt.Errorf("router probe: %w", err)
	}

	// Sessions of both halves describe the serve layer; only latency
	// overhead compares the halves.
	var cold, resumed, precomps, infers []time.Duration
	var handshake []float64
	var wire, online, hsTotal uint64
	var returning, resumedN, bufferHits, inferN int
	var lags []time.Duration
	for _, r := range []*results{plain, traced} {
		for _, s := range r.sessions {
			lags = append(lags, s.lag)
			if s.connect == 0 {
				continue
			}
			if s.resumed {
				resumed = append(resumed, s.connect)
			} else {
				cold = append(cold, s.connect)
			}
			if !s.cold {
				returning++
				if s.resumed {
					resumedN++
				}
			}
			precomps = append(precomps, s.precomps...)
			infers = append(infers, s.infers...)
			bufferHits += s.bufferHits
			inferN += len(s.infers)
			if s.done {
				handshake = append(handshake, float64(s.handshakeBytes))
				wire += s.wireBytes
				hsTotal += s.handshakeBytes
				online += s.onlineBytes
			}
		}
	}
	n := float64(plain.verified() + traced.verified())
	inferP50 := median(durationsMs(infers))
	bufferHit := ratio(float64(bufferHits), float64(inferN))

	// Engine and router counters, summed over replicas. The registry is
	// shared, so its counters are read once.
	var garbleReq, garbleCoalesced uint64
	var perReplica []float64
	var reg serve.Stats
	for i, eng := range e.engines {
		st := eng.Stats()
		if i == 0 {
			reg = st
		}
		garbleReq += st.GarbleRequests
		garbleCoalesced += st.GarbleCoalesced
		perReplica = append(perReplica, float64(st.TotalInferences))
	}
	var total, most float64
	for _, v := range perReplica {
		total += v
		most = max(most, v)
	}
	m := map[string]float64{
		"fleet.load_imbalance": ratio(most, total/float64(len(perReplica))) - 1,
	}
	var rs fleet.Stats // all zero without a router
	if e.router != nil {
		rs = e.router.Stats()
	}
	m["fleet.sticky_ratio"] = ratio(float64(rs.TicketRoutes), float64(rs.Connects))
	m["fleet.spills"] = float64(rs.SpillRoutes)
	m["fleet.retries"] = float64(rs.Retries)
	m["fleet.no_backend"] = float64(rs.NoBackend)
	m["fleet.router_overhead_us"] = routerUs

	// Ladder: medians of the repeats, and the part of each harness phase its
	// replayed kernels account for.
	med := func(ds []time.Duration) float64 { return median(durationsMs(ds)) }
	cover := map[string]float64{
		"setup":   coverage(tr, h.setupSpans),
		"offline": coverage(tr, h.offlineSpans),
		"online":  coverage(tr, h.onlineSpans),
	}
	for _, phase := range []string{"setup", "offline", "online"} {
		flag := ""
		if c := cover[phase]; c < 0.7 || c > 1.15 {
			flag = "  (outside [0.7, 1.15]: the layers do not sum to the whole)"
		}
		fmt.Fprintf(stdout, "ladder coverage %-8s %.3f%s\n", phase, cover[phase], flag)
	}
	selfMs := func(ids []int) float64 {
		var vs []time.Duration
		for _, id := range ids {
			vs = append(vs, tr.selfTime(id))
		}
		return med(vs)
	}
	offlineMs, onlineMs := med(h.offline), med(h.online)

	m["ot.base_ms"] = med(ld.baseOT)
	m["ot.resume_us"] = med(ld.resume) * 1000
	m["ot.ext_ms_per_infer"] = med(ld.ext)
	m["ot.ext_ots_per_infer"] = float64(ld.extOTs)
	m["bfv.keygen_ms"] = med(ld.keygen)
	m["bfv.encrypt_ms_per_infer"] = med(ld.encrypt)
	m["bfv.encrypt_cts_per_infer"] = float64(ld.encryptCts)
	m["bfv.matvec_ms_per_infer"] = med(ld.matvec)
	m["bfv.decrypt_ms_per_infer"] = med(ld.decrypt)
	m["bfv.encode_model_ms"] = ms(e.encodeModel)
	m["ringq.ntt_fwd_us"] = nttFwdUs
	m["garble.garble_ms_per_infer"] = med(ld.garbling)
	m["garble.ns_per_gate"] = ratio(med(ld.garbling)*1e6, float64(ld.andGates))
	m["garble.relus_per_infer"] = float64(ld.relus)
	m["garble.and_gates_per_infer"] = float64(ld.andGates)
	m["garble.eval_ms_per_infer"] = med(ld.eval)
	m["garble.table_bytes_per_infer"] = float64(ld.tableBytes)

	m["transport.handshake_bytes"] = median(handshake)
	m["transport.offline_bytes_per_infer"] = ratio(float64(wire-hsTotal-online), n)
	m["transport.online_bytes_per_infer"] = ratio(float64(online), n)
	m["transport.bulk_mb_per_s"] = mbPerS
	m["transport.frame_rtt_us"] = rttUs

	m["delphi.setup_ms"] = med(h.setup)
	m["delphi.offline_ms"] = offlineMs
	m["delphi.online_ms"] = onlineMs
	m["delphi.offline_he_ms"] = ms(h.clientOff.HEDuration)
	m["delphi.offline_gc_ms"] = ms(h.clientOff.GCDuration)
	m["delphi.offline_ot_ms"] = ms(h.clientOff.OTDuration)
	m["delphi.client_gc_store_bytes"] = float64(h.clientOff.GCStoreBytes)
	m["delphi.server_gc_store_bytes"] = float64(h.serverOff.GCStoreBytes)
	m["delphi.offline_self_ms"] = selfMs(h.offlineSpans)
	m["delphi.online_self_ms"] = selfMs(h.onlineSpans)

	m["serve.connect_cold_ms"] = med(cold)
	m["serve.connect_resumed_ms"] = med(resumed)
	m["serve.precompute_p50_ms"] = med(precomps)
	m["serve.infer_p95_ms"] = quantile(durationsMs(infers), 0.95)
	// What Client.Infer costs beyond the delphi phases it runs: the online
	// phase always, the offline phase whenever no pre-compute was buffered.
	m["serve.overhead_ms"] = inferP50 - onlineMs - (1-bufferHit)*offlineMs
	m["serve.resume_hit_ratio"] = ratio(float64(resumedN), float64(returning))
	m["serve.buffer_hit_ratio"] = bufferHit
	m["serve.garble_coalesced_ratio"] = ratio(float64(garbleCoalesced), float64(garbleReq))
	m["serve.registry_hit_ratio"] = ratio(float64(reg.RegistryHits), float64(reg.RegistryHits+reg.RegistryMisses))

	tn := float64(traced.verified())
	m["proc.allocs_per_infer"] = ratio(float64(traced.mallocs), tn)
	m["proc.alloc_bytes_per_infer"] = ratio(float64(traced.allocBytes), tn)
	m["proc.gc_pause_ms"] = ms(traced.gcPause)
	// The two halves are compared at reference speed: the machine may have
	// changed pace between them.
	plainSpeed, _ := plain.speed.factors()
	tracedSpeed, _ := traced.speed.factors()
	plainP50 := median(durationsMs(plain.inferLatencies())) * plainSpeed
	m["proc.trace_overhead_frac"] = ratio(median(durationsMs(traced.inferLatencies()))*tracedSpeed-plainP50, plainP50)
	m["gen.lag_p99_ms"] = quantile(durationsMs(lags), 0.99)
	m["ladder.coverage"] = cover[e.w.coverPhase]
	return m, nil
}

// coverage is the share of the given phase spans' time that their child
// spans — the replayed kernels — account for.
func coverage(tr *tracer, ids []int) float64 {
	var whole, self time.Duration
	for _, id := range ids {
		whole += tr.spans[id-1].dur()
		self += tr.selfTime(id)
	}
	return ratio(float64(whole-self), float64(whole))
}

// routerOverheadUs is what the router adds to a resumed connect: the median
// connect through its front listener minus the median connect straight to
// the replica that holds the client's ticket. 0 without a router.
func routerOverheadUs(e *env, probes int) (float64, error) {
	if e.router == nil {
		return 0, nil
	}
	connect := func(addr string, p *serve.Preamble) (time.Duration, bool, error) {
		t0 := time.Now()
		conn, err := transport.Dial(addr)
		if err != nil {
			return 0, false, err
		}
		c, err := serve.Connect(conn, serve.WithModel(modelCNN), serve.WithPreamble(p))
		if err != nil {
			conn.Close()
			return 0, false, err
		}
		took := time.Since(t0)
		resumed := c.Resumed()
		c.Close()
		return took, resumed, nil
	}
	// A ticket resumes only on the replica that issued it, and the router
	// only routes by tickets it saw issued: earn one through the router and
	// find the issuing replica by its ticket counter.
	issued := func() []uint64 {
		out := make([]uint64, len(e.engines))
		for i, eng := range e.engines {
			out[i] = eng.Stats().Tickets.Issued
		}
		return out
	}
	before := issued()
	p := serve.NewPreamble()
	if _, _, err := connect(e.addr, p); err != nil {
		return 0, err
	}
	holder := -1
	for i, n := range issued() {
		if n > before[i] {
			holder = i
		}
	}
	if holder < 0 {
		return 0, fmt.Errorf("no replica issued a ticket")
	}
	var direct, routed []float64
	for i := 0; i < probes; i++ {
		for _, leg := range []struct {
			addr string
			dst  *[]float64
		}{{e.direct[holder], &direct}, {e.addr, &routed}} {
			took, resumed, err := connect(leg.addr, p)
			if err != nil {
				return 0, err
			}
			if resumed {
				*leg.dst = append(*leg.dst, us(took))
			}
		}
	}
	if len(direct) == 0 || len(routed) == 0 {
		return 0, fmt.Errorf("no resumed connect (direct %d, routed %d)", len(direct), len(routed))
	}
	return median(routed) - median(direct), nil
}
