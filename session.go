package privinf

import (
	"fmt"
	"io"

	"privinf/internal/delphi"
	"privinf/internal/nn"
	"privinf/internal/serve"
	"privinf/internal/transport"
)

// Session is a long-lived private-inference session: one handshake (HE
// keys, weight encoding, base OTs) amortizes over many inferences, and
// pre-computes can be buffered ahead of requests — the deployment shape the
// paper's arrival-rate analysis models.
//
// A Session is a single-client view onto a serving engine
// (internal/serve): LocalEngine.Connect opens one over an in-process pipe,
// through the same wire protocol a remote TCP client would use.
// Pre-computes here are explicit (Precompute), so Buffered is fully under
// the caller's control; a multi-client engine with background refills is
// what cmd/pirun -serve runs.
type Session struct {
	engine *serve.Engine
	client *serve.Client
	model  *nn.Lowered
}

// LocalEngine is an in-process multi-model serving engine: several named
// models behind one registry, sessions opened by model name over the same
// wire protocol a remote client would use. Each model's artifact (encoded
// weights, ReLU circuits) is built on its first session and shared by
// every later one. A byte-budgeted registry with LRU eviction is what
// serve.NewRegistry builds for serve.New.
type LocalEngine struct {
	eng     *serve.Engine
	ln      *transport.PipeListener
	entropy io.Reader
	models  map[string]*Model
}

// Preamble is a client's reusable session-preamble state: the OT
// resumption ticket from its last full handshake and the HE key pair its
// last keygen drew. It holds no model state: each
// session derives its plans and circuits from the welcome's metadata. Pass
// one to LocalEngine.Connect via WithPreamble (or serve.Connect/serve.Dial
// via serve.WithPreamble for remote engines) on every connect of a logical
// client: the first session runs a full handshake and fills it, every
// later session resumes — skipping the public-key base OTs and the BFV
// keygen.
type Preamble = serve.Preamble

// NewPreamble returns an empty session preamble.
func NewPreamble() *Preamble { return serve.NewPreamble() }

// PreambleStore persists Preambles to disk, one framed and checksummed
// file per logical client name, so session resumption survives client
// process restarts: load the preamble, reconnect, and the session takes
// the resumed fast path with zero keygen and zero base OTs. Damaged,
// truncated or version-skewed files fail with typed errors
// (serve.ErrPreambleNotFound / ErrPreambleCorrupt / ErrPreambleVersion) —
// fall back to NewPreamble and a full handshake. Files hold secret key
// material and are created 0600 in a 0700 directory.
type PreambleStore = serve.PreambleStore

// NewPreambleStore opens (creating if necessary) a preamble store rooted
// at dir.
func NewPreambleStore(dir string) (*PreambleStore, error) {
	return serve.NewPreambleStore(dir)
}

// LocalEngineConfig parameterizes NewLocalEngine.
type LocalEngineConfig struct {
	// Models are the networks to serve, keyed by the names sessions will
	// request.
	Models map[string]*Model
	// Variant selects which party garbles.
	Variant Variant
	// ArtifactDir, when non-empty, backs the registry with an on-disk
	// artifact store: encoded models persist across engine restarts
	// (restart cost is O(load) instead of O(encode)). Damaged or stale
	// files fall back to a fresh build automatically.
	ArtifactDir string
	// TicketDir, when non-empty, persists the engine's OT resumption
	// tickets: live tickets are written through to disk and reloaded at
	// construction, so repeat clients stay on the resumed fast path across
	// a full engine restart (pair with a client-side PreambleStore for
	// restart-durable resumption of both parties). Ticket files hold
	// secret OT seed material; the directory is created 0700.
	TicketDir string
	// Entropy seeds all cryptographic randomness; nil means crypto/rand.
	Entropy io.Reader
}

// NewLocalEngine starts an in-process engine serving every model in
// cfg.Models, keyed by the names sessions will request. Each model's
// artifact (encoded weights, ReLU circuits) is built on its first
// request; with cfg.ArtifactDir it is also backed by an on-disk artifact
// store. Sessions open by model name with Connect. For /metrics, start
// serve.NewDebugServer beside it: it serves the process-wide view.
func NewLocalEngine(cfg LocalEngineConfig) (_ *LocalEngine, err error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("privinf: no models to serve")
	}
	var store *serve.ArtifactStore
	if cfg.ArtifactDir != "" {
		if store, err = serve.NewArtifactStoreBudget(cfg.ArtifactDir, 0); err != nil {
			return nil, err
		}
	}
	reg := serve.NewRegistryWithStore(0, store)
	defer func() {
		if err != nil {
			reg.Close()
		}
	}()
	maxLinear := 0
	kept := make(map[string]*Model, len(cfg.Models))
	for name, m := range cfg.Models {
		if err := reg.Register(name, m); err != nil {
			return nil, err
		}
		maxLinear = max(maxLinear, len(m.Linear))
		kept[name] = m
	}
	entropy := delphi.LockedEntropy(cfg.Entropy)
	eng, err := serve.New(serve.Config{
		Registry:    reg,
		Variant:     cfg.Variant,
		LPHEWorkers: maxLinear,
		TicketDir:   cfg.TicketDir,
		Entropy:     entropy,
	})
	if err != nil {
		return nil, err
	}
	ln := transport.NewPipeListener()
	go eng.Serve(ln)
	return &LocalEngine{eng: eng, ln: ln, entropy: entropy, models: kept}, nil
}

// ConnectOption configures LocalEngine.Connect.
type ConnectOption func(*connectOptions)

type connectOptions struct {
	preamble *Preamble
}

// WithPreamble connects through a client preamble: the session presents
// the preamble's resumption ticket (reconnects skip base OTs when the
// engine accepts it) and updates it in place with this handshake's
// outcome. A nil p is a plain cold connect.
func WithPreamble(p *Preamble) ConnectOption {
	return func(o *connectOptions) { o.preamble = p }
}

// Connect opens a session on the named model. Unknown names fail the
// handshake with an error matching errors.Is(err, serve.ErrUnknownModel).
// Closing the returned session leaves the engine (and its other sessions)
// running.
func (e *LocalEngine) Connect(name string, opts ...ConnectOption) (*Session, error) {
	var o connectOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	conn, err := e.ln.Dial()
	if err != nil {
		return nil, err
	}
	client, err := serve.Connect(conn, serve.WithModel(name), serve.WithPreamble(o.preamble), serve.WithEntropy(e.entropy))
	if err != nil {
		conn.Close()
		return nil, err
	}
	// The engine resolves an empty name to its default model; look the
	// model up under the name it resolved.
	return &Session{engine: e.eng, client: client, model: e.models[client.Model()]}, nil
}

// Stats snapshots the engine's metrics, partitioned per model (session
// counts, buffer fill, registry hit/miss/eviction counters).
func (e *LocalEngine) Stats() serve.Stats { return e.eng.Stats() }

// Close tears down the engine and every open session, then retires the
// engine's model registry.
func (e *LocalEngine) Close() error {
	err := e.eng.Close()
	e.eng.Registry().Close()
	return err
}

// Precompute runs one offline phase, adding a pre-compute to both parties'
// buffers. Returns the client's and server's offline reports.
func (s *Session) Precompute() (client, server delphi.OfflineReport, err error) {
	return s.client.Precompute()
}

// Buffered returns the number of pre-computes ready for inferences.
func (s *Session) Buffered() int { return s.client.Buffered() }

// Infer consumes one buffered pre-compute (running a fresh offline phase
// inline if none is buffered — the "on-the-fly" case of the paper's
// storage-starved configurations) and returns the verified output.
func (s *Session) Infer(x []uint64) (*InferenceResult, error) {
	out, cliRep, srvRep, err := s.client.Infer(x)
	if err != nil {
		return nil, err
	}
	res := &InferenceResult{
		Output:       out,
		Predicted:    nn.Argmax(s.model.F, out),
		ClientOnline: cliRep,
		ServerOnline: srvRep,
	}
	want := s.model.Forward(x)
	res.Verified = true
	for i := range want {
		if out[i] != want[i] {
			res.Verified = false
			break
		}
	}
	if !res.Verified {
		return res, fmt.Errorf("privinf: private output diverged from plaintext inference")
	}
	return res, nil
}

// Stats snapshots the backing engine's metrics.
func (s *Session) Stats() serve.Stats { return s.engine.Stats() }

// Model returns the registry name of the model this session is served
// (the engine's default model when Connect named none).
func (s *Session) Model() string { return s.client.Model() }

// Resumed reports whether this session's OT setup was expanded from a
// preamble's resumption ticket instead of running base OTs.
func (s *Session) Resumed() bool { return s.client.Resumed() }

// Close tears the session down; the engine and its other sessions keep
// running.
func (s *Session) Close() error {
	return s.client.Close()
}
