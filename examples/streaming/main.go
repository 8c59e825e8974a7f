// Streaming: private inference under request arrival rates.
//
// The paper's central systems insight is that PI pre-computation cannot be
// assumed free: client storage bounds how many pre-computes can buffer, and
// at realistic arrival rates the offline phase leaks into request latency.
//
// Part 1 shows this live on the serving engine with real cryptography: the
// same Poisson request stream is served twice, once storage-starved (no
// background buffering — every request pays the offline phase inline) and
// once buffered (the engine's scheduler pre-computes ahead of arrivals), and
// the measured request latencies split exactly as the paper predicts.
//
// Part 2 reproduces the paper-scale numbers (ResNet-18/TinyImageNet,
// 16 GB client, 24 h Poisson stream) with the calibrated simulator.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"privinf"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

func main() {
	liveStream()
	paperScaleSim()
}

// liveStream serves one Poisson client stream twice: storage-starved vs
// buffered.
func liveStream() {
	model, err := privinf.NewDemoMLP(11)
	if err != nil {
		log.Fatal(err)
	}
	const requests = 6
	const meanGapMs = 400

	reg := serve.NewRegistry(0)
	defer reg.Close()
	if err := reg.Register("mlp", model); err != nil {
		log.Fatal(err)
	}
	run := func(name string, budget int) float64 {
		eng, err := serve.New(serve.Config{
			Registry:         reg,
			Variant:          privinf.ClientGarbler,
			LPHEWorkers:      len(model.Linear),
			BufferPerSession: 2,
			StorageBudget:    budget,
			OfflineWorkers:   2,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer eng.Close()
		ln := transport.NewPipeListener()
		go eng.Serve(ln)
		conn, err := ln.Dial()
		if err != nil {
			log.Fatal(err)
		}
		c, err := serve.Connect(conn)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()

		rng := rand.New(rand.NewSource(99))
		var totalMs float64
		for i := 0; i < requests; i++ {
			// Poisson arrivals: exponential gaps let the scheduler refill
			// between requests — exactly what a storage-starved engine
			// cannot exploit.
			time.Sleep(time.Duration(rng.ExpFloat64()*meanGapMs) * time.Millisecond)
			x := make([]uint64, model.InputLen())
			for j := range x {
				x[j] = uint64((j + i) % 9)
			}
			t0 := time.Now()
			if _, _, _, err := c.Infer(x); err != nil {
				log.Fatal(err)
			}
			totalMs += time.Since(t0).Seconds() * 1000
		}
		mean := totalMs / requests
		fmt.Printf("  %-18s mean request latency %5.0f ms\n", name, mean)
		return mean
	}

	fmt.Printf("live engine, %d Poisson requests (mean gap %d ms), real crypto:\n", requests, meanGapMs)
	starved := run("storage-starved", 0)
	buffered := run("buffered", -1)
	fmt.Printf("  buffering ahead of arrivals cuts request latency %.1fx\n\n", starved/buffered)
}

// paperScaleSim is the paper-scale arrival-rate study (Figures 7/10-style).
func paperScaleSim() {
	arch, err := privinf.NewArchitecture("ResNet-18", privinf.TinyImageNet)
	if err != nil {
		log.Fatal(err)
	}

	const clientStorage = 16 * 1e9 // bytes

	baseline := privinf.BaselineScenario(arch)
	proposed := privinf.ProposedScenario(arch)

	baseB := privinf.Characterize(baseline)
	propB := privinf.Characterize(proposed)

	fmt.Printf("paper scale (simulated) per-inference costs (%s):\n", arch)
	fmt.Printf("  baseline Server-Garbler: offline %.0f s, online %.0f s\n", baseB.Offline(), baseB.Online())
	fmt.Printf("  proposed (CG+LPHE+WSA):  offline %.0f s, online %.0f s\n\n", propB.Offline(), propB.Online())

	baseCap := baseline.BufferCapacity(clientStorage, 0)
	propCap := proposed.BufferCapacity(clientStorage, 0)
	fmt.Printf("pre-computes buffering in 16 GB: baseline %d, proposed %d\n\n", baseCap, propCap)

	mkCfg := func(off, on float64, capacity int) privinf.WorkloadConfig {
		return privinf.WorkloadConfig{
			OfflineSeconds:         off,
			OnDemandOfflineSeconds: off,
			OnlineSeconds:          on,
			Capacity:               capacity,
			MaxConcurrent:          1,
		}
	}
	baseCfg := mkCfg(baseB.Offline(), baseB.Online(), baseCap)
	propCfg := mkCfg(propB.Offline(), propB.Online(), propCap)

	fmt.Println("mean latency (minutes) by arrival rate, 24 h Poisson stream, 10 runs:")
	fmt.Printf("%-16s %12s %12s\n", "req per minute", "baseline", "proposed")
	for _, denom := range []float64{100, 54, 36, 28, 22, 18} {
		baseCfg.ArrivalsPerMinute = 1 / denom
		propCfg.ArrivalsPerMinute = 1 / denom
		bs, err := privinf.SimulateWorkload(baseCfg, 10)
		if err != nil {
			log.Fatal(err)
		}
		ps, err := privinf.SimulateWorkload(propCfg, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("1/%-14.0f %12.1f %12.1f\n", denom, bs.MeanLatency/60, ps.MeanLatency/60)
	}
	fmt.Println("\nthe proposed protocol both lowers the latency floor and sustains higher rates,")
	fmt.Println("because 16 GB buffers a pre-compute only under Client-Garbler storage demands.")
}
