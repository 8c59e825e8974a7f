// Multi-client: many small clients, one serving engine.
//
// §5.2 of the paper observes that request-level parallelism shines when
// total client storage scales with the client count: each client buffers
// only a pre-compute or two, but N clients give the server N concurrent
// pre-processing pipelines to keep busy, sustaining an aggregate rate no
// single client could.
//
// This example runs that scenario live: a serving engine (internal/serve)
// hosts the demo MLP with real cryptography, N client sessions connect over
// TCP loopback, the background scheduler keeps every session's buffer
// filled under a global storage budget, and each client then fires a burst
// of inferences, each checked against plaintext inference. It closes with the paper-scale simulation (ResNet-18 on
// TinyImageNet) the live engine's scheduler policy is validated against.
//
//	go run ./examples/multiclient
package main

import (
	"fmt"
	"log"
	"runtime"
	"slices"
	"sync"
	"time"

	"privinf"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

func main() {
	liveEngine()
	paperScaleSim()
}

func liveEngine() {
	model, err := privinf.NewDemoMLP(7)
	if err != nil {
		log.Fatal(err)
	}
	reg := serve.NewRegistry(0)
	defer reg.Close()
	if err := reg.Register("mlp", model); err != nil {
		log.Fatal(err)
	}
	eng, err := serve.New(serve.Config{
		Registry:         reg,
		Variant:          privinf.ClientGarbler,
		LPHEWorkers:      len(model.Linear),
		BufferPerSession: 2,
		StorageBudget:    -1,
		OfflineWorkers:   runtime.NumCPU(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go eng.Serve(ln)

	const clients = 4
	const infers = 3
	fmt.Printf("live engine on %s: %d clients x %d inferences, real crypto\n", ln.Addr(), clients, infers)

	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := serve.Dial(ln.Addr())
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			for k := 0; k < infers; k++ {
				x := make([]uint64, model.InputLen())
				for j := range x {
					x[j] = uint64((j + ci*3 + k) % 15)
				}
				t0 := time.Now()
				out, _, _, err := c.Infer(x)
				if err != nil {
					log.Fatal(err)
				}
				if !slices.Equal(out, model.Forward(x)) {
					log.Fatalf("client %d inference %d diverged from plaintext inference", ci, k)
				}
				fmt.Printf("  client %d inference %d: %4.0f ms (buffered %d)\n",
					ci, k, time.Since(t0).Seconds()*1000, c.Buffered())
			}
		}(ci)
	}
	wg.Wait()

	st := eng.Stats()
	fmt.Printf("engine: %d sessions served %d inferences with %d pre-computes in %.1f s\n\n",
		clients, st.TotalInferences, st.TotalPrecomputes, time.Since(start).Seconds())
}

// paperScaleSim reproduces the §5.2 numbers: the same largest-deficit
// refill policy the live scheduler runs, at ResNet-18/TinyImageNet scale.
func paperScaleSim() {
	arch, err := privinf.NewArchitecture("ResNet-18", privinf.TinyImageNet)
	if err != nil {
		log.Fatal(err)
	}
	scn := privinf.ProposedScenario(arch)
	rlpOffline := scn.RLPBreakdown().Offline()
	online := privinf.Characterize(scn).Online()

	fmt.Printf("paper scale (simulated): %s, proposed protocol\n", arch)
	fmt.Printf("  one RLP pre-compute pipeline: %.0f s; online phase: %.0f s\n\n", rlpOffline, online)

	perClient := 1.0 / 90 // each client: one request per 90 minutes
	fmt.Println("mean latency (minutes) as clients share one server, 10 runs:")
	fmt.Printf("%-10s %-16s %-14s %s\n", "clients", "aggregate/min", "latency min", "queue min")
	for _, n := range []int{1, 3, 9, 18} {
		cfg := privinf.WorkloadConfig{
			Clients:           n,
			Capacity:          1, // 16 GB each
			OfflineSeconds:    rlpOffline,
			MaxConcurrent:     privinf.EPYCServer.Cores,
			OnlineSeconds:     online,
			ArrivalsPerMinute: perClient,
		}
		st, err := privinf.SimulateWorkload(cfg, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %-16.3f %-14.1f %.1f\n",
			n, float64(n)*perClient, st.MeanLatency/60, st.MeanQueueWait/60)
	}

	// The single client that tried to absorb the 9-client aggregate alone:
	agg := 9 * perClient
	single := privinf.WorkloadConfig{
		OfflineSeconds:         privinf.Characterize(scn).Offline(),
		OnDemandOfflineSeconds: privinf.Characterize(scn).Offline(),
		OnlineSeconds:          online,
		Capacity:               1,
		MaxConcurrent:          1,
		ArrivalsPerMinute:      agg,
	}
	st, err := privinf.SimulateWorkload(single, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\none 16 GB client at the same aggregate rate (%.3f/min): %.0f min — queue collapse;\n",
		agg, st.MeanLatency/60)
	fmt.Println("per-client latency stays bounded only because storage scales with the fleet.")
}
