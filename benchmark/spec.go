package main

import (
	"time"

	"privinf/internal/delphi"
)

// A workload is a sequence of sessions; a session is connect → K × (optional
// Precompute, then Infer) → Close. Because every workload has this shape,
// every end-to-end metric exists on every workload.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same line; the self-test keeps them equal).
	why     string
	variant delphi.Variant
	// open selects the arrival process: false is a closed loop of one client
	// (the next session starts when the previous one closes), true an open
	// loop of sessions arriving on a seeded schedule at rate sessions/s,
	// served by C client workers and timed from each session's due time.
	//
	// It also selects GOMAXPROCS. This sandbox's second vCPU is a hyperthread
	// of the first for most minutes and nearer a core of its own for some,
	// and with two threads every phase that fans out (layer-parallel HE,
	// batch garbling, client and server at once) is a quarter faster in
	// those minutes — cold_cg's inference 64 ms or 49 ms at one single-thread
	// speed, which no speed reference scales away. A closed loop has one
	// client and needs no second thread, so it runs on one: its numbers are
	// single-thread cost, and repeat within 2 %. The open loop needs sessions
	// to overlap (on one thread a cold connect's base OTs hold every other
	// session up in 10 ms turns), so it runs on C and is as steady as the
	// machine.
	open bool
	rate float64
	// replicas > 0 puts a fleet.Router in front of that many engines.
	replicas int
	// coldShare is the share of sessions that connect with a fresh preamble
	// (full handshake: 128 base OTs + BFV keygen); the rest resume from one
	// of `returning` preambles warmed during set-up.
	coldShare float64
	returning int
	// mlpShare is the share of sessions served the demo MLP, not the CNN.
	mlpShare float64
	// k is the number of inferences per session; precompute makes each one
	// an explicit Precompute followed by Infer, so the timed Infer is the
	// online phase alone.
	k          int
	precompute bool
	// buffer and setupWorkers are the engine's BufferPerSession and
	// SetupWorkers.
	buffer       int
	setupWorkers int
	// A session meets its latency limit when its first verified result
	// arrived within firstLimit of its start (due time in an open loop) and
	// every later inference took at most inferLimit. Set once on the parent
	// commit, then frozen: moving them redefines slo_ok_ratio.
	firstLimit time.Duration
	inferLimit time.Duration
	// coverPhase is the delphi phase whose ladder coverage the workload
	// reports as ladder.coverage: the phase its users wait on.
	coverPhase string
}

// scale sizes everything a run repeats. The benchmark runs at fullScale;
// the self-test runs every code path at toyScale.
type scale struct {
	// setupRepeats is how many times a run builds its whole environment: the
	// reported setup_s is the median, the last environment is the one
	// measured. warmups is the untimed sessions each set-up ends with.
	setupRepeats, warmups int
	// setupReps and phaseReps repeat the delphi harness phases and each
	// replayed kernel; Setup runs 128 base OTs (~0.5 s), so it repeats less.
	setupReps, phaseReps int
	// routerProbes is the resumed connects per leg of the router probe.
	routerProbes int
}

var (
	fullScale = scale{setupRepeats: 3, warmups: 3, setupReps: 3, phaseReps: 5, routerProbes: 20}
	toyScale  = scale{setupRepeats: 1, warmups: 1, setupReps: 1, phaseReps: 1, routerProbes: 2}
)

// toy shrinks the workload for the self-test: same shape, fewer operations.
func (w workload) toy() workload {
	w.k = min(w.k, 2)
	w.returning = min(w.returning, 2)
	if w.open {
		w.rate = 5
	}
	return w
}

var workloads = []workload{
	{
		name:       "cold_cg",
		why:        "closed loop, Client-Garbler, every session a fresh client: full handshake (128 base OTs, BFV keygen), one on-the-fly inference; ~90% base OT, so an EC base OT shows here and nowhere else",
		variant:    delphi.ClientGarbler,
		coldShare:  1,
		k:          1,
		firstLimit: 1200 * time.Millisecond,
		inferLimit: 1200 * time.Millisecond,
		coverPhase: "setup",
	},
	{
		name:       "buffered_cg",
		why:        "closed loop, Client-Garbler, resumed sessions of 10 x (Precompute, Infer): the timed Infer is online only (OT extension, server GC eval); offline HE and garbling move throughput, not latency",
		variant:    delphi.ClientGarbler,
		returning:  1,
		k:          10,
		precompute: true,
		firstLimit: 150 * time.Millisecond,
		inferLimit: 50 * time.Millisecond,
		coverPhase: "online",
	},
	{
		name:       "onthefly_sg",
		why:        "closed loop, Server-Garbler, resumed sessions, no buffer: every Infer runs its offline phase inline (HE, server garbling, offline OT); the opposite garbler role and phase to buffered_cg",
		variant:    delphi.ServerGarbler,
		returning:  1,
		k:          10,
		firstLimit: 200 * time.Millisecond,
		inferLimit: 150 * time.Millisecond,
		coverPhase: "offline",
	},
	{
		name:         "fleet_mix",
		why:          "open loop, seeded Poisson arrivals via fleet.Router to 2 Client-Garbler replicas with refill; 70/30 CNN/MLP, 20% cold clients, K=4: placement, stickiness, admission, cold-connect interference",
		variant:      delphi.ClientGarbler,
		open:         true,
		rate:         1.5,
		replicas:     2,
		coldShare:    0.2,
		returning:    6,
		mlpShare:     0.3,
		k:            4,
		buffer:       2,
		setupWorkers: 1,
		firstLimit:   1500 * time.Millisecond,
		inferLimit:   250 * time.Millisecond,
		coverPhase:   "online",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported number. better is "lower" or "higher".
type metricDef struct {
	name, unit, better string
}

// endToEnd lists what a user of the system sees, in report order. Bounds
// live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"connect_p50_ms", "ms", "lower"},
	{"first_result_p50_ms", "ms", "lower"},
	{"infer_p50_ms", "ms", "lower"},
	{"infer_per_s", "1/s", "higher"},
	{"slo_ok_ratio", "ratio", "higher"},
	{"wire_bytes_per_infer", "B", "lower"},
	{"online_bytes_per_infer", "B", "lower"},
	{"cpu_ms_per_infer", "ms", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"sessions_ok", "count", "higher"},
}

// move says which end-to-end metric a layer metric should move, and on
// which workloads ("all" for every one) — written down before measuring, so
// a change that moves a layer number can be checked against the prediction.
type move struct {
	metric    string
	workloads []string
}

func on(metric string, workloads ...string) move { return move{metric, workloads} }

// layerDef is one per-layer metric with its predicted end-to-end effect.
type layerDef struct {
	metricDef
	moves []move
}

func lower(name, unit string, moves ...move) layerDef {
	return layerDef{metricDef{name, unit, "lower"}, moves}
}

func higher(name, unit string, moves ...move) layerDef {
	return layerDef{metricDef{name, unit, "higher"}, moves}
}

// Predictions several layer metrics share.
var (
	// Full-handshake work: on the path of every cold connect.
	coldPath = []move{
		on("first_result_p50_ms", "cold_cg"), on("connect_p50_ms", "cold_cg"),
		on("cpu_ms_per_infer", "cold_cg"), on("slo_ok_ratio", "fleet_mix"),
	}
	// Resumed-handshake work.
	resumedPath = []move{on("connect_p50_ms", "buffered_cg", "onthefly_sg", "fleet_mix")}
	// Offline-phase work: latency where the offline phase runs inline,
	// throughput where it runs ahead of the request.
	offlinePath = []move{on("infer_p50_ms", "onthefly_sg"), on("infer_per_s", "buffered_cg")}
	// Work both garbler roles wait on, online or inline.
	bothRoles = []move{on("infer_p50_ms", "buffered_cg", "onthefly_sg")}
	// Fleet placement and hit ratios.
	fleetPath = []move{on("connect_p50_ms", "fleet_mix"), on("slo_ok_ratio", "fleet_mix")}
	hitPath   = []move{on("slo_ok_ratio", "fleet_mix"), on("infer_p50_ms", "fleet_mix")}
	wirePath  = []move{on("wire_bytes_per_infer", "all")}
	procPath  = []move{on("cpu_ms_per_infer", "all"), on("peak_rss_mib", "all")}
)

// layerDefs is perLayer without the predictions.
func layerDefs() []metricDef {
	defs := make([]metricDef, len(perLayer))
	for i, l := range perLayer {
		defs[i] = l.metricDef
	}
	return defs
}

// perLayer lists the layer metrics, named after the modules they measure.
// Kernel rows (ot, bfv, ringq, garble) come from the ladder replay; delphi
// rows from the benchmark's own two-party harness; serve, fleet and
// transport rows from the traced workload run and the probes; proc and gen
// rows from the process and the load generator.
var perLayer = []layerDef{
	lower("ot.base_ms", "ms", coldPath...),
	lower("ot.resume_us", "us", resumedPath...),
	lower("ot.ext_ms_per_infer", "ms", bothRoles...),
	lower("ot.ext_ots_per_infer", "count", append(bothRoles, on("online_bytes_per_infer", "cold_cg", "buffered_cg", "fleet_mix"))...),
	lower("bfv.keygen_ms", "ms", coldPath...),
	lower("bfv.encrypt_ms_per_infer", "ms", offlinePath...),
	lower("bfv.encrypt_cts_per_infer", "count", append(offlinePath, wirePath...)...),
	lower("bfv.matvec_ms_per_infer", "ms", offlinePath...),
	lower("bfv.decrypt_ms_per_infer", "ms", offlinePath...),
	lower("bfv.encode_model_ms", "ms", on("setup_s", "all")),
	lower("ringq.ntt_fwd_us", "us", offlinePath...),
	lower("garble.garble_ms_per_infer", "ms", offlinePath...),
	lower("garble.ns_per_gate", "ns", offlinePath...),
	lower("garble.relus_per_infer", "count", offlinePath...),
	lower("garble.and_gates_per_infer", "count", offlinePath...),
	lower("garble.eval_ms_per_infer", "ms", bothRoles...),
	lower("garble.table_bytes_per_infer", "B", wirePath...),
	lower("transport.handshake_bytes", "B", wirePath...),
	lower("transport.offline_bytes_per_infer", "B", wirePath...),
	lower("transport.online_bytes_per_infer", "B", append(wirePath, on("online_bytes_per_infer", "all"))...),
	higher("transport.bulk_mb_per_s", "MB/s", on("infer_p50_ms", "onthefly_sg")),
	lower("transport.frame_rtt_us", "us", resumedPath...),
	lower("delphi.setup_ms", "ms", coldPath...),
	lower("delphi.offline_ms", "ms", offlinePath...),
	lower("delphi.online_ms", "ms", on("infer_p50_ms", "all")),
	lower("delphi.offline_he_ms", "ms", offlinePath...),
	lower("delphi.offline_gc_ms", "ms", offlinePath...),
	lower("delphi.offline_ot_ms", "ms", on("infer_p50_ms", "onthefly_sg")),
	lower("delphi.client_gc_store_bytes", "B", on("peak_rss_mib", "onthefly_sg")),
	lower("delphi.server_gc_store_bytes", "B", on("peak_rss_mib", "buffered_cg", "fleet_mix")),
	lower("delphi.offline_self_ms", "ms", offlinePath...),
	lower("delphi.online_self_ms", "ms", on("infer_p50_ms", "all")),
	lower("serve.connect_cold_ms", "ms", on("connect_p50_ms", "cold_cg"), on("first_result_p50_ms", "cold_cg"), on("slo_ok_ratio", "fleet_mix")),
	lower("serve.connect_resumed_ms", "ms", resumedPath...),
	lower("serve.precompute_p50_ms", "ms", on("infer_per_s", "buffered_cg"), on("first_result_p50_ms", "buffered_cg")),
	lower("serve.infer_p95_ms", "ms", on("slo_ok_ratio", "all")),
	lower("serve.overhead_ms", "ms", on("infer_p50_ms", "all")),
	higher("serve.resume_hit_ratio", "ratio", append(resumedPath, on("slo_ok_ratio", "fleet_mix"))...),
	higher("serve.buffer_hit_ratio", "ratio", hitPath...),
	higher("serve.garble_coalesced_ratio", "ratio", on("cpu_ms_per_infer", "onthefly_sg")),
	higher("serve.registry_hit_ratio", "ratio", hitPath...),
	lower("fleet.router_overhead_us", "us", fleetPath...),
	higher("fleet.sticky_ratio", "ratio", fleetPath...),
	lower("fleet.spills", "count", fleetPath...),
	lower("fleet.retries", "count", fleetPath...),
	lower("fleet.no_backend", "count", fleetPath...),
	lower("fleet.load_imbalance", "ratio", fleetPath...),
	lower("proc.allocs_per_infer", "count", procPath...),
	lower("proc.alloc_bytes_per_infer", "B", procPath...),
	lower("proc.gc_pause_ms", "ms", procPath...),
	lower("proc.trace_overhead_frac", "ratio", on("infer_p50_ms", "all")),
	lower("gen.lag_p99_ms", "ms", on("first_result_p50_ms", "fleet_mix")),
	higher("ladder.coverage", "ratio"),
}
