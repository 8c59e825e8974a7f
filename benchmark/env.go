package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"privinf"
	"privinf/internal/delphi"
	"privinf/internal/fleet"
	"privinf/internal/nn"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

// modelSeed fixes the demo networks' weights: the benchmark's seed varies
// the clients' inputs and schedule, never the program under test.
const modelSeed = 21

// Registry names of the demo CNN and the demo MLP. The router places a
// session without a ticket by rendezvous-hashing its model name, and with
// two replicas these two names land on different ones; "cnn" and "mlp" both
// land on replica 0, which would leave the other replica nothing but spills.
const (
	modelCNN = "conv"
	modelMLP = "dense"
)

// env is one workload's system under test: engines (behind a router when
// the workload has replicas) listening on loopback TCP, the plaintext models
// outputs are checked against, and the returning clients' warmed preambles.
type env struct {
	w      workload
	addr   string // what clients dial: the engine, or the router's front
	models map[string]*nn.Lowered
	// artifacts are the prepared models the engines serve; the ladder replay
	// reads shapes from their Meta.
	artifacts map[string]*delphi.SharedModel
	engines   []*serve.Engine
	// direct[i] is engines[i]'s own listener address, bypassing the router.
	direct    []string
	router    *fleet.Router
	listeners []transport.Listener
	serving   sync.WaitGroup // the Serve loops of the listeners
	preambles []*serve.Preamble
	// encodeModel is how long PrepareModel took for the CNN
	// (bfv.encode_model_ms).
	encodeModel time.Duration
}

// demoModels builds the plaintext networks the workload serves: the demo
// CNN, and the demo MLP when the workload mixes models.
func demoModels(w workload) (map[string]*nn.Lowered, error) {
	cnn, err := privinf.NewDemoCNN(modelSeed)
	if err != nil {
		return nil, err
	}
	models := map[string]*nn.Lowered{modelCNN: cnn}
	if w.mlpShare > 0 {
		if models[modelMLP], err = privinf.NewDemoMLP(modelSeed); err != nil {
			return nil, err
		}
	}
	return models, nil
}

// newEnv builds the models, prepares their artifacts, starts the engines
// (and router) on loopback TCP and warms one preamble per returning client
// with a full handshake. It does not run warm-up sessions. c is the
// benchmark's connection cap, and the engines' layer-parallel HE width.
func newEnv(w workload, c int) (*env, error) {
	e := &env{
		w:         w,
		artifacts: map[string]*delphi.SharedModel{},
	}
	var err error
	if e.models, err = demoModels(w); err != nil {
		return nil, err
	}
	names := []string{modelCNN, modelMLP}[:len(e.models)]
	reg := serve.NewRegistry(0)
	for _, name := range names {
		start := time.Now()
		art, err := privinf.PrepareModel(e.models[name])
		if err != nil {
			return nil, err
		}
		if name == modelCNN {
			e.encodeModel = time.Since(start)
		}
		if err := reg.RegisterArtifact(name, art); err != nil {
			return nil, err
		}
		e.artifacts[name] = art
	}

	for i := 0; i < max(w.replicas, 1); i++ {
		eng, err := serve.New(serve.Config{
			Registry:         reg,
			DefaultModel:     modelCNN,
			Variant:          w.variant,
			LPHEWorkers:      c,
			BufferPerSession: w.buffer,
			StorageBudget:    -1,
			OfflineWorkers:   1,
			SetupWorkers:     w.setupWorkers,
		})
		if err != nil {
			e.Close()
			return nil, err
		}
		e.engines = append(e.engines, eng)
		ln, err := e.listen(eng.Serve)
		if err != nil {
			e.Close()
			return nil, err
		}
		e.direct = append(e.direct, ln.Addr())
	}
	e.addr = e.direct[0]
	if w.replicas > 0 {
		e.router = fleet.NewRouter(fleet.Config{})
		for _, eng := range e.engines {
			if _, err := e.router.AddEngine(eng); err != nil {
				e.Close()
				return nil, err
			}
		}
		ln, err := e.listen(e.router.Serve)
		if err != nil {
			e.Close()
			return nil, err
		}
		e.addr = ln.Addr()
	}

	// Returning clients warm up side by side, as many at once as the
	// benchmark ever has connections open: a full handshake is ~0.5 s of
	// base OTs, and set-up is repeated.
	e.preambles = make([]*serve.Preamble, w.returning)
	errs := make([]error, w.returning)
	sem := make(chan struct{}, c)
	var wg sync.WaitGroup
	for i := range e.preambles {
		e.preambles[i] = serve.NewPreamble()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Each client ends up holding every model's artifact. The first
			// connect is the cold one: the router places it by model, and the
			// ticket it earns pins the client there, so rotate which model
			// goes first to spread the returning clients over the replicas.
			for j := range names {
				if err := e.warm(e.preambles[i], names[(i+j)%len(names)]); err != nil {
					errs[i] = fmt.Errorf("warm preamble %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// listen opens a loopback TCP listener and serves it with serveFn until
// Close.
func (e *env) listen(serveFn func(transport.Listener) error) (transport.Listener, error) {
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.listeners = append(e.listeners, ln)
	e.serving.Add(1)
	go func() {
		defer e.serving.Done()
		// Serve returns when Close closes the listener; a listener that
		// fails earlier shows as failed connects.
		_ = serveFn(ln)
	}()
	return ln, nil
}

// warm connects once with p so it holds a resumption ticket, HE keys and
// the model's client artifact.
func (e *env) warm(p *serve.Preamble, model string) error {
	c, err := serve.Dial(e.addr, serve.WithModel(model), serve.WithPreamble(p))
	if err != nil {
		return err
	}
	return c.Close()
}

// Close stops the router and engines and waits for their serve loops.
func (e *env) Close() {
	for _, ln := range e.listeners {
		ln.Close()
	}
	if e.router != nil {
		e.router.Close() // closes its replicas' engines too
	}
	for _, eng := range e.engines {
		eng.Close()
	}
	e.serving.Wait()
}
