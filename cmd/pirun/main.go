// Command pirun executes real cryptographic private inference end to end —
// BFV homomorphic share generation, half-gates garbling, IKNP oblivious
// transfers, garbled ReLU evaluation.
//
// Three modes:
//
//	pirun                       # in-process client/server pair, both variants
//	pirun -serve :9000          # multi-client serving engine on TCP
//	pirun -connect host:9000    # client session against a serving engine
//
// Usage:
//
//	pirun [-model cnn|mlp] [-seed N]
//	pirun -serve ADDR [-models cnn,mlp] [-registry-budget BYTES] [-artifact-dir DIR] [-artifact-disk-budget BYTES]
//	      [-pin-default] [-ticket-ttl D] [-ticket-budget BYTES] [-ticket-dir DIR] [-variant cg|sg] [-buffer N] [-budget N] [-workers N]
//	      [-fleet N] [-autoscale] [-max-replicas N] [-target-wait D] [-setup-workers N]
//	pirun -connect ADDR [-model NAME] [-n N] [-reconnect N] [-preamble-dir DIR]
//
// A server hosts every model named in -models (default: just -model) from
// one registry; built artifacts stay resident up to -registry-budget bytes
// (0 = unbounded) with LRU eviction and lazy rebuild. With -artifact-dir
// the registry is backed by an on-disk artifact store: encoded models
// persist across server restarts (restart cost is O(load), not O(encode))
// and eviction spills to disk instead of dropping; -artifact-disk-budget
// keeps that directory under a byte budget. -pin-default exempts the
// default model from eviction and pre-builds it. Repeat clients get OT
// resumption tickets (TTL -ticket-ttl, cache budget -ticket-budget;
// -ticket-ttl -1s disables), so reconnects skip the base OTs. A client
// requests one registry entry by -model name, rebuilds the same demo model
// locally from -model/-seed, and verifies outputs against plaintext
// inference; point it at a server started with the same -seed. With
// -reconnect N the client closes its session and reconnects N times
// through a session preamble, printing the cold vs resumed connect times.
// Resumption can be made restart-durable on both ends: -ticket-dir
// persists the server's tickets, -preamble-dir persists the client's
// preamble (OT seeds, HE key pair), so a reconnect
// after both processes restart still takes the resumed fast path — no base
// OTs, no keygen.
//
// With -fleet N (or -autoscale) the server side becomes a replicated
// fleet: N engine replicas sharing one registry behind the fleet router
// (consistent-hash placement, ticket-sticky resumption, least-load
// spill-over). -autoscale adds the M/M/c autoscaler, growing the set up
// to -max-replicas whenever the modelled queueing delay exceeds
// -target-wait and drain-then-stopping idle replicas back down.
// -setup-workers bounds concurrent full session setups per replica.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"privinf"
	"privinf/internal/delphi"
	"privinf/internal/fleet"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

func main() {
	modelName := flag.String("model", "cnn", "demo model: cnn or mlp (connect mode: registry name to request)")
	modelsFlag := flag.String("models", "", "serve mode: comma-separated demo models to serve (default: just -model)")
	registryBudget := flag.Int64("registry-budget", 0, "serve mode: registry artifact byte budget (0 unbounded); LRU eviction + lazy rebuild past it")
	artifactDir := flag.String("artifact-dir", "", "serve mode: back the registry with an on-disk artifact store in this directory (restarts load instead of re-encode; eviction spills instead of drops)")
	artifactDiskBudget := flag.Int64("artifact-disk-budget", 0, "serve mode: keep -artifact-dir under this many bytes, sweeping least-recently-written artifacts (0 unbounded)")
	pinDefault := flag.Bool("pin-default", false, "serve mode: pin the default model's artifact (never evicted, pre-built at start)")
	ticketTTL := flag.Duration("ticket-ttl", 0, "serve mode: OT resumption ticket lifetime (0 = default 15m, negative disables resumption)")
	ticketBudget := flag.Int64("ticket-budget", 0, "serve mode: resumption ticket cache byte budget (0 = default 4 MiB, negative unbounded)")
	ticketDir := flag.String("ticket-dir", "", "serve mode: persist resumption tickets in this directory (0700; reconnects stay on the resumed fast path across server restarts)")
	preambleDir := flag.String("preamble-dir", "", "connect mode: persist the session preamble in this directory (0700; reconnects resume across client restarts)")
	seed := flag.Int64("seed", 42, "model weight seed")
	serveAddr := flag.String("serve", "", "run a serving engine on this TCP address")
	connectAddr := flag.String("connect", "", "connect a client session to a serving engine")
	variantFlag := flag.String("variant", "cg", "serve mode protocol variant: cg (Client-Garbler) or sg (Server-Garbler)")
	buffer := flag.Int("buffer", 1, "serve mode: pre-compute buffer target per session")
	budget := flag.Int("budget", -1, "serve mode: global storage budget in pre-compute slots (-1 unbounded, 0 storage-starved)")
	workers := flag.Int("workers", runtime.NumCPU(), "serve mode: concurrent background offline phases")
	n := flag.Int("n", 3, "connect mode: number of inferences to run")
	reconnect := flag.Int("reconnect", 0, "connect mode: after the first session, reconnect this many times through a session preamble (resumed connects)")
	fleetN := flag.Int("fleet", 1, "serve mode: replica count; > 1 serves through a fleet router (consistent hashing, ticket-sticky resumption, least-load spill)")
	autoscale := flag.Bool("autoscale", false, "serve mode: grow/shrink the replica set with the M/M/c autoscaler (implies the fleet router)")
	maxReplicas := flag.Int("max-replicas", 8, "serve mode: autoscaler replica ceiling")
	targetWait := flag.Duration("target-wait", fleet.DefaultTargetWait, "serve mode: autoscaler queueing-delay target")
	setupWorkers := flag.Int("setup-workers", 0, "serve mode: concurrent full session setups per replica (0 unbounded)")
	debugAddr := flag.String("debug-addr", "", "observability endpoint address (any mode): Prometheus /metrics, JSON /statusz, and /debug/pprof; \":0\" picks a free port")
	flag.Parse()

	if *debugAddr != "" {
		dbg, err := serve.NewDebugServer(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("pirun: debug endpoint on http://%s (/metrics, /statusz, /debug/pprof/)", dbg.Addr())
	}

	switch {
	case *serveAddr != "" && *connectAddr != "":
		log.Fatal("pirun: -serve and -connect are mutually exclusive")
	case *serveAddr != "":
		names := strings.Split(*modelsFlag, ",")
		if *modelsFlag == "" {
			names = []string{*modelName}
		}
		runServe(serveOpts{
			names: names, seed: *seed, addr: *serveAddr, variant: *variantFlag,
			registryBudget: *registryBudget, artifactDir: *artifactDir, artifactDiskBudget: *artifactDiskBudget,
			pinDefault: *pinDefault, ticketTTL: *ticketTTL, ticketBudget: *ticketBudget, ticketDir: *ticketDir,
			buffer: *buffer, budget: *budget, workers: *workers,
			fleet: *fleetN, autoscale: *autoscale, maxReplicas: *maxReplicas,
			targetWait: *targetWait, setupWorkers: *setupWorkers,
		})
	case *connectAddr != "":
		runConnect(buildModel(*modelName, *seed), *modelName, *connectAddr, *n, *reconnect, *preambleDir)
	default:
		runLocal(buildModel(*modelName, *seed), *modelName)
	}
}

func buildModel(name string, seed int64) *privinf.Model {
	var (
		model *privinf.Model
		err   error
	)
	switch name {
	case "cnn":
		model, err = privinf.NewDemoCNN(seed)
	case "mlp":
		model, err = privinf.NewDemoMLP(seed)
	default:
		log.Fatalf("pirun: unknown model %q", name)
	}
	if err != nil {
		log.Fatal(err)
	}
	return model
}

// serveOpts bundles the serve-mode flags.
type serveOpts struct {
	names                   []string
	seed                    int64
	addr, variant           string
	registryBudget          int64
	artifactDir             string
	artifactDiskBudget      int64
	pinDefault              bool
	ticketTTL               time.Duration
	ticketBudget            int64
	ticketDir               string
	buffer, budget, workers int
	fleet, maxReplicas      int
	setupWorkers            int
	autoscale               bool
	targetWait              time.Duration
}

// runServe hosts a multi-client, multi-model serving engine until
// interrupted. Every name in names becomes a registry entry clients can
// request; the first is the default model.
func runServe(o serveOpts) {
	var variant privinf.Variant
	switch o.variant {
	case "cg":
		variant = privinf.ClientGarbler
	case "sg":
		variant = privinf.ServerGarbler
	default:
		log.Fatalf("pirun: unknown -variant %q (want cg or sg)", o.variant)
	}
	var store *serve.ArtifactStore
	if o.artifactDir != "" {
		var err error
		if store, err = serve.NewArtifactStoreBudget(o.artifactDir, o.artifactDiskBudget); err != nil {
			log.Fatal(err)
		}
	}
	reg := serve.NewRegistryWithStore(o.registryBudget, store)
	maxLinear := 0
	for _, name := range o.names {
		name = strings.TrimSpace(name)
		model := buildModel(name, o.seed)
		if err := reg.Register(name, model); err != nil {
			log.Fatal(err)
		}
		if len(model.Linear) > maxLinear {
			maxLinear = len(model.Linear)
		}
	}
	defaultModel := strings.TrimSpace(o.names[0])
	if o.pinDefault {
		// Pin, then build (or reload) now, so the first session never pays
		// the cold build. Every replica shares reg, so this covers a fleet.
		if err := reg.Pin(defaultModel); err != nil {
			log.Fatal(err)
		}
		if _, err := reg.Get(defaultModel); err != nil {
			log.Fatal(err)
		}
	}
	makeEngine := func() (*serve.Engine, error) {
		return serve.New(serve.Config{
			Registry:         reg,
			DefaultModel:     defaultModel,
			Variant:          variant,
			LPHEWorkers:      maxLinear,
			BufferPerSession: o.buffer,
			StorageBudget:    o.budget,
			OfflineWorkers:   o.workers,
			SetupWorkers:     o.setupWorkers,
			TicketTTL:        o.ticketTTL,
			TicketBudget:     o.ticketBudget,
			TicketDir:        o.ticketDir,
		})
	}
	if o.fleet > 1 || o.autoscale {
		runFleetServe(o, reg, store, makeEngine)
		return
	}
	eng, err := makeEngine()
	if err != nil {
		log.Fatal(err)
	}
	ln, err := transport.Listen(o.addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %s, models %s (default %s%s) on %s\n", variant, strings.Join(reg.Names(), ","),
		defaultModel, map[bool]string{true: ", pinned", false: ""}[o.pinDefault], ln.Addr())
	fmt.Printf("scheduler: buffer/session %d, storage budget %d slots, %d offline workers; registry budget %s\n",
		o.buffer, o.budget, o.workers, humanBudget(o.registryBudget))
	if store != nil {
		fmt.Printf("artifact store: %s, disk budget %s (restarts load instead of re-encode; eviction spills)\n",
			store.Dir(), humanBudget(o.artifactDiskBudget))
	}
	if o.ticketTTL >= 0 {
		if o.ticketDir != "" {
			fmt.Printf("resumption: tickets on, persisted in %s (reconnects skip base OTs, surviving restarts)\n", o.ticketDir)
		} else {
			fmt.Printf("resumption: tickets on (reconnects skip base OTs)\n")
		}
	} else {
		fmt.Printf("resumption: disabled\n")
	}

	go func() {
		if err := eng.Serve(ln); err != nil {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			st := eng.Stats()
			fmt.Printf("sessions %d  buffered %d (refilling %d)  precomputes %d  inferences %d  registry %s (hits %d, misses %d, evictions %d, spills %d, reloads %d, load errors %d)\n",
				st.ActiveSessions, st.TotalBuffered, st.RefillsInFlight, st.TotalPrecomputes, st.TotalInferences,
				human(uint64(st.RegistryBytes)), st.RegistryHits, st.RegistryMisses, st.RegistryEvictions,
				st.RegistrySpills, st.RegistryReloads, st.RegistryLoadErrors)
			fmt.Printf("  tickets %d (%s): issued %d, resumed %d, expired %d, unknown %d, evicted %d\n",
				st.Tickets.Tickets, human(uint64(st.Tickets.Bytes)),
				st.Tickets.Issued, st.Tickets.Resumed, st.Tickets.Expired, st.Tickets.Unknown, st.Tickets.Evicted)
			for _, m := range st.Models {
				if m.Sessions > 0 || m.Resident {
					fmt.Printf("  model %-8s sessions %d  buffered %d  resident %v (%s)\n",
						m.Name, m.Sessions, m.Buffered, m.Resident, human(uint64(m.SizeBytes)))
				}
			}
		case <-sig:
			eng.Close()
			reg.Close()
			st := eng.Stats()
			fmt.Printf("\nfinal: %d precomputes, %d inferences served\n", st.TotalPrecomputes, st.TotalInferences)
			return
		}
	}
}

// runFleetServe hosts a replicated fleet behind the router: -fleet N
// replicas (all sharing one registry, so the fleet keeps a single encoded
// artifact copy per model), optionally resized live by the autoscaler.
func runFleetServe(o serveOpts, reg *serve.Registry, store *serve.ArtifactStore, makeEngine func() (*serve.Engine, error)) {
	router := fleet.NewRouter(fleet.Config{})
	n := o.fleet
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		eng, err := makeEngine()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := router.AddEngine(eng); err != nil {
			log.Fatal(err)
		}
	}
	ln, err := transport.Listen(o.addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d replicas, models %s (default %s) on %s\n",
		n, strings.Join(reg.Names(), ","), strings.TrimSpace(o.names[0]), ln.Addr())
	fmt.Printf("per replica: buffer/session %d, storage budget %d slots, %d offline workers, %d setup workers; registry budget %s (shared)\n",
		o.buffer, o.budget, o.workers, o.setupWorkers, humanBudget(o.registryBudget))
	if store != nil {
		fmt.Printf("artifact store: %s, disk budget %s\n", store.Dir(), humanBudget(o.artifactDiskBudget))
	}
	if o.autoscale {
		slots := 0
		if o.budget > 0 {
			slots = o.budget // fleet-global: the autoscaler re-divides it per replica
		}
		scaler, err := fleet.NewAutoscaler(fleet.AutoscalerConfig{
			Router:       router,
			Spawn:        makeEngine,
			MinReplicas:  n,
			MaxReplicas:  o.maxReplicas,
			TargetWait:   o.targetWait,
			StorageSlots: slots,
		})
		if err != nil {
			log.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go scaler.Run(ctx)
		fmt.Printf("autoscaler: M/M/c target wait %v, replicas %d..%d\n", o.targetWait, n, o.maxReplicas)
	}

	go func() {
		if err := router.Serve(ln); err != nil {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			st := router.Stats()
			fmt.Printf("fleet: %d replicas, %d connects (%d ticket-routes, %d spills, %d retries, %d no-backend)\n",
				len(st.Replicas), st.Connects, st.TicketRoutes, st.SpillRoutes, st.Retries, st.NoBackend)
			for _, rep := range router.Replicas() {
				eng := rep.Engine()
				if eng == nil {
					continue
				}
				es := eng.Stats()
				fmt.Printf("  replica %d: load %d, sessions %d, buffered %d, inferences %d\n",
					rep.ID, rep.Load(), es.ActiveSessions, es.TotalBuffered, es.TotalInferences)
			}
		case <-sig:
			var total uint64
			for _, rep := range router.Replicas() {
				if eng := rep.Engine(); eng != nil {
					total += eng.Stats().TotalInferences
				}
			}
			router.Close()
			reg.Close()
			fmt.Printf("\nfinal: %d inferences served across the fleet\n", total)
			return
		}
	}
}

func humanBudget(b int64) string {
	if b <= 0 {
		return "unbounded"
	}
	return human(uint64(b))
}

// runConnect runs client sessions against a remote engine, requesting the
// named registry entry. The first session connects cold through a session
// preamble; with reconnects > 0 it then closes and reconnects that many
// times, each resumed connect skipping the base OTs. With a -preamble-dir
// the preamble is loaded from (and saved to) disk, so a freshly started
// pirun process resumes where the last one left off — provided the server
// persists its tickets too (-ticket-dir).
func runConnect(model *privinf.Model, name, addr string, n, reconnects int, preambleDir string) {
	p := serve.NewPreamble()
	var pstore *serve.PreambleStore
	if preambleDir != "" {
		var err error
		if pstore, err = serve.NewPreambleStore(preambleDir); err != nil {
			log.Fatal(err)
		}
		if loaded, err := pstore.Load(name); err == nil {
			p = loaded
			fmt.Printf("preamble: loaded from %s\n", pstore.Path(name))
		} else if !errors.Is(err, serve.ErrPreambleNotFound) {
			fmt.Printf("preamble: %v (starting fresh)\n", err)
		}
	}
	savePreamble := func() {
		if pstore == nil {
			return
		}
		if err := pstore.Save(name, p); err != nil {
			fmt.Printf("preamble: save failed: %v\n", err)
		}
	}
	dial := func() *serve.Client {
		start := time.Now()
		c, err := serve.Dial(addr, serve.WithModel(name), serve.WithPreamble(p))
		if err != nil {
			if errors.Is(err, serve.ErrUnknownModel) {
				log.Fatalf("pirun: engine does not serve model %q: %v", name, err)
			}
			log.Fatal(err)
		}
		tier := "cold"
		if resumed, reject := c.ResumeOutcome(); resumed {
			tier = "resumed"
		} else if reject != "" {
			tier = "cold (ticket rejected: " + reject + ")"
		}
		fmt.Printf("connect (%s): %.0f ms\n", tier, time.Since(start).Seconds()*1000)
		savePreamble()
		return c
	}

	c := dial()
	defer func() { c.Close() }()
	meta := c.Meta()
	fmt.Printf("connected to %s engine at %s, serving model %q (%d linear layers)\n", c.Variant(), addr, c.Model(), len(meta.Dims))
	if meta.Dims[0].In != model.InputLen() || meta.P != model.F.P() {
		log.Fatalf("pirun: server model (%d inputs, p=%d) does not match local -model/-seed (%d inputs, p=%d); outputs cannot be verified",
			meta.Dims[0].In, meta.P, model.InputLen(), model.F.P())
	}

	infer := func(i int) {
		x := make([]uint64, model.InputLen())
		for j := range x {
			x[j] = uint64((j*7 + 3 + i) % 16)
		}
		start := time.Now()
		out, cliRep, srvRep, err := c.Infer(x)
		if err != nil {
			log.Fatal(err)
		}
		verified := true
		for j, w := range model.Forward(x) {
			if out[j] != w {
				verified = false
				break
			}
		}
		fmt.Printf("inference %d: %.0f ms end to end (online client %.0f ms, server %.0f ms), verified %v, buffered now %d\n",
			i, time.Since(start).Seconds()*1000,
			cliRep.Duration.Seconds()*1000, srvRep.Duration.Seconds()*1000,
			verified, c.Buffered())
		if !verified {
			log.Fatal("pirun: output diverged from plaintext inference (mismatched -model/-seed?)")
		}
	}
	for i := 0; i < n; i++ {
		infer(i)
	}
	for r := 0; r < reconnects; r++ {
		c.Close()
		c = dial()
		infer(n + r)
	}
}

// runLocal is the original mode: an in-process pair under both variants.
func runLocal(model *privinf.Model, modelName string) {
	x := make([]uint64, model.InputLen())
	for i := range x {
		x[i] = uint64((i*7 + 3) % 16) // a deterministic synthetic "image"
	}

	fmt.Printf("model: %s  (%d -> %d, %d linear layers, %d ReLUs, field p=%d)\n\n",
		modelName, model.InputLen(), model.OutputLen(), len(model.Linear), model.NumReLUs(), model.F.P())

	var diverged []string
	for _, variant := range []delphi.Variant{privinf.ServerGarbler, privinf.ClientGarbler} {
		res, err := privinf.RunLocalInference(model, variant, x, nil)
		if err != nil {
			log.Fatalf("%v: %v", variant, err)
		}
		fmt.Printf("%s\n", variant)
		fmt.Printf("  verified against plaintext: %v, predicted class %d\n", res.Verified, res.Predicted)
		fmt.Printf("  offline: client %.0f ms (sent %s, recv %s, stores %s), server %.0f ms (stores %s)\n",
			res.ClientOffline.Duration.Seconds()*1000,
			human(res.ClientOffline.BytesSent), human(res.ClientOffline.BytesRecv),
			human(res.ClientOffline.GCStoreBytes),
			res.ServerOffline.Duration.Seconds()*1000,
			human(res.ServerOffline.GCStoreBytes))
		fmt.Printf("  online:  client %.0f ms (sent %s, recv %s)\n\n",
			res.ClientOnline.Duration.Seconds()*1000,
			human(res.ClientOnline.BytesSent), human(res.ClientOnline.BytesRecv))
		if !res.Verified {
			diverged = append(diverged, variant.String())
		}
	}
	if len(diverged) > 0 {
		log.Fatalf("pirun: %s output diverged from plaintext inference", strings.Join(diverged, " and "))
	}
}

func human(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
