package main

import (
	"fmt"
	"slices"
	"time"

	"privinf/internal/delphi"
	"privinf/internal/transport"
)

// harnessResult is the delphi layer timed from outside: a client and a
// server endpoint of the workload's variant on a loopback TCP pair, each
// phase timed from its start to both parties' return.
type harnessResult struct {
	setup, offline, online []time.Duration
	// setupSpans, offlineSpans and onlineSpans are the phases' span ids, the
	// parents of the replayed kernels.
	setupSpans, offlineSpans, onlineSpans []int
	// The parties' own reports of the last repeat.
	clientOff, serverOff delphi.OfflineReport
}

// both runs the two parties of one phase concurrently and returns the wall
// time until both are done.
func both(client, server func() error) (time.Duration, error) {
	start := time.Now()
	errc := make(chan error, 1)
	go func() { errc <- server() }()
	cerr := client()
	serr := <-errc
	took := time.Since(start)
	if cerr != nil {
		return took, cerr
	}
	return took, serr
}

// runHarness times delphi's Setup, RunOffline and RunOnline on the CNN,
// checking every online output against plaintext Forward.
func runHarness(e *env, g *generator, tr *tracer, sc scale) (*harnessResult, error) {
	art := e.artifacts[modelCNN]
	model := e.models[modelCNN]
	cfg := delphi.Config{Variant: e.w.variant, HEParams: art.Params(), LPHEWorkers: len(art.Meta().Dims)}
	h := &harnessResult{}

	var cli *delphi.Client
	var srv *delphi.Server
	var cleanup func()
	for i := 0; i < sc.setupReps; i++ {
		if cleanup != nil {
			cleanup()
		}
		cc, sc, cl, err := transport.TCPPair()
		if err != nil {
			return nil, err
		}
		cleanup = cl
		if cli, err = delphi.NewClient(cc, cfg, art.Meta(), nil); err != nil {
			cleanup()
			return nil, err
		}
		if srv, err = delphi.NewServerShared(sc, cfg, art, nil); err != nil {
			cleanup()
			return nil, err
		}
		sp := tr.begin(0, 0, "delphi.Setup")
		took, err := both(cli.Setup, srv.Setup)
		tr.end(sp)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("harness setup: %w", err)
		}
		h.setup = append(h.setup, took)
		h.setupSpans = append(h.setupSpans, sp)
	}
	defer cleanup()

	for i := 0; i < sc.phaseReps; i++ {
		sp := tr.begin(0, 0, "delphi.RunOffline")
		took, err := both(
			func() (err error) { h.clientOff, err = cli.RunOffline(); return },
			func() (err error) { h.serverOff, err = srv.RunOffline(); return },
		)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("harness offline: %w", err)
		}
		h.offline = append(h.offline, took)
		h.offlineSpans = append(h.offlineSpans, sp)

		x := g.input(model)
		var out []uint64
		sp = tr.begin(0, 0, "delphi.RunOnline")
		took, err = both(
			func() (err error) { out, _, err = cli.RunOnline(x); return },
			func() (err error) { _, err = srv.RunOnline(); return },
		)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("harness online: %w", err)
		}
		if !slices.Equal(out, model.Forward(x)) {
			return nil, fmt.Errorf("harness online: output differs from plaintext Forward")
		}
		h.online = append(h.online, took)
		h.onlineSpans = append(h.onlineSpans, sp)
	}
	return h, nil
}
