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
// (internal/serve): NewLocalSession spins up a private engine and connects
// to it over an in-process pipe, through the same wire protocol a remote
// TCP client would use. Pre-computes here are explicit (Precompute), so
// Buffered is fully under the caller's control; a multi-client engine with
// background refills is what cmd/pirun -serve runs.
type Session struct {
	engine *serve.Engine
	// ownsEngine marks sessions whose Close tears the engine down; sessions
	// opened through a shared LocalEngine leave it running.
	ownsEngine bool
	client     *serve.Client
	model      *nn.Lowered
}

// SessionOption configures NewLocalSession.
type SessionOption func(*sessionOptions)

type sessionOptions struct {
	artifact *SharedModel
	entropy  io.Reader
}

// WithArtifact serves the session from a pre-built shared model artifact
// (PrepareModel): the NTT-domain weight plaintexts and ReLU circuits are
// reused, not re-encoded, so opening the k-th session on one artifact
// costs O(1) model work. The model argument may then be nil (the
// artifact's source model is used); a non-nil model must be the one the
// artifact was built from.
func WithArtifact(artifact *SharedModel) SessionOption {
	return func(o *sessionOptions) { o.artifact = artifact }
}

// WithEntropy seeds the session's cryptographic randomness from r; the
// default (and a nil r) is crypto/rand.
func WithEntropy(r io.Reader) SessionOption {
	return func(o *sessionOptions) { o.entropy = r }
}

// NewLocalSession starts an in-process serving engine for the model, wires
// a client to it, and runs the handshake. By default the engine encodes
// the model into a private shared artifact; to amortize that across
// several sessions or engines, build the artifact once with PrepareModel
// and pass it with WithArtifact.
func NewLocalSession(model *Model, variant Variant, opts ...SessionOption) (*Session, error) {
	var o sessionOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	artifact := o.artifact
	switch {
	case artifact == nil && model == nil:
		return nil, fmt.Errorf("privinf: nil model")
	case artifact == nil:
		var err error
		if artifact, err = PrepareModel(model); err != nil {
			return nil, err
		}
	case model != nil && artifact.Model() != model:
		return nil, fmt.Errorf("privinf: WithArtifact artifact was built from a different model")
	}
	model = artifact.Model()
	entropy := delphi.LockedEntropy(o.entropy)
	eng, err := serve.New(serve.Config{
		Artifact:    artifact,
		Variant:     variant,
		LPHEWorkers: len(model.Linear),
		Entropy:     entropy,
	})
	if err != nil {
		return nil, err
	}
	ln := transport.NewPipeListener()
	go eng.Serve(ln)
	conn, err := ln.Dial()
	if err != nil {
		eng.Close()
		return nil, err
	}
	client, err := serve.Connect(conn, serve.WithEntropy(entropy))
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &Session{engine: eng, ownsEngine: true, client: client, model: model}, nil
}

// LocalEngine is an in-process multi-model serving engine: several named
// models behind one registry, sessions opened by model name over the same
// wire protocol a remote client would use. Built artifacts (encoded
// weights, ReLU circuits) are held under a byte budget with LRU eviction
// and rebuilt lazily after eviction, so one process can serve more models
// than fit in memory at once.
type LocalEngine struct {
	eng     *serve.Engine
	ln      *transport.PipeListener
	entropy io.Reader
	models  map[string]*Model
	// debug is the optional observability endpoint
	// (LocalEngineConfig.DebugAddr); nil when not configured.
	debug *serve.DebugServer
}

// Preamble is a client's reusable session-preamble state: the OT
// resumption ticket from its last full handshake and the HE key material
// derived for the current ticket generation. It holds no model state: each
// session derives its plans and circuits from the welcome's metadata. Pass
// one to LocalEngine.Connect via WithPreamble (or serve.Connect/serve.Dial
// via serve.WithPreamble for remote engines) on every connect of a logical
// client: the first session runs a full handshake and fills it, every
// later session resumes — skipping the public-key base OTs, the BFV
// keygen and the public-key transfer.
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
	// BudgetBytes caps the registry's resident artifact footprint (<= 0
	// unbounded).
	BudgetBytes int64
	// ArtifactDir, when non-empty, backs the registry with an on-disk
	// artifact store: encoded models persist across engine restarts
	// (restart cost is O(load) instead of O(encode)) and LRU eviction
	// spills to disk instead of dropping, so re-requesting an evicted
	// model reloads rather than re-encodes. Damaged or stale files fall
	// back to a fresh build automatically.
	ArtifactDir string
	// ArtifactDiskBudget caps the artifact directory's bytes (<= 0
	// unbounded): every write sweeps least-recently-modified artifact
	// files past it, so a rotating model population cannot grow the
	// directory without bound. Requires ArtifactDir.
	ArtifactDiskBudget int64
	// TicketDir, when non-empty, persists the engine's OT resumption
	// tickets: live tickets are written through to disk and reloaded at
	// construction, so repeat clients stay on the resumed fast path across
	// a full engine restart (pair with a client-side PreambleStore for
	// restart-durable resumption of both parties). Ticket files hold
	// secret OT seed material; the directory is created 0700.
	TicketDir string
	// Entropy seeds all cryptographic randomness; nil means crypto/rand.
	Entropy io.Reader
	// DebugAddr, when non-empty, starts a serve.DebugServer on the
	// address: Prometheus text metrics at /metrics, a JSON snapshot at
	// /statusz, and net/http/pprof under /debug/pprof/. Use ":0" to pick
	// a free port (LocalEngine.DebugAddr reports the bound address). The
	// endpoint is closed with the engine.
	DebugAddr string
}

// NewLocalEngine starts an in-process engine serving every model in
// cfg.Models, keyed by the names sessions will request. Built artifacts
// (encoded weights, ReLU circuits) live under cfg.BudgetBytes with LRU
// eviction and lazy rebuild; with cfg.ArtifactDir they are additionally
// backed by an on-disk artifact store. Sessions open by model name with
// Connect.
func NewLocalEngine(cfg LocalEngineConfig) (*LocalEngine, error) {
	models := cfg.Models
	if len(models) == 0 {
		return nil, fmt.Errorf("privinf: no models to serve")
	}
	var store *serve.ArtifactStore
	if cfg.ArtifactDir != "" {
		var err error
		if store, err = serve.NewArtifactStoreBudget(cfg.ArtifactDir, cfg.ArtifactDiskBudget); err != nil {
			return nil, err
		}
	}
	reg := serve.NewRegistryWithStore(cfg.BudgetBytes, store)
	maxLinear := 0
	for name, m := range models {
		if err := reg.Register(name, m); err != nil {
			return nil, err
		}
		if len(m.Linear) > maxLinear {
			maxLinear = len(m.Linear)
		}
	}
	variant := cfg.Variant
	entropy := delphi.LockedEntropy(cfg.Entropy)
	eng, err := serve.New(serve.Config{
		Registry:    reg,
		Variant:     variant,
		LPHEWorkers: maxLinear,
		TicketDir:   cfg.TicketDir,
		Entropy:     entropy,
	})
	if err != nil {
		return nil, err
	}
	var dbg *serve.DebugServer
	if cfg.DebugAddr != "" {
		if dbg, err = serve.NewDebugServer(cfg.DebugAddr); err != nil {
			eng.Close()
			return nil, err
		}
	}
	ln := transport.NewPipeListener()
	go eng.Serve(ln)
	kept := make(map[string]*Model, len(models))
	for name, m := range models {
		kept[name] = m
	}
	return &LocalEngine{eng: eng, ln: ln, entropy: entropy, models: kept, debug: dbg}, nil
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

// DebugAddr returns the bound address of the engine's observability
// endpoint, or "" when LocalEngineConfig.DebugAddr was not set.
func (e *LocalEngine) DebugAddr() string {
	if e.debug == nil {
		return ""
	}
	return e.debug.Addr()
}

// Close tears down the engine, its debug endpoint, and every open
// session.
func (e *LocalEngine) Close() error {
	if e.debug != nil {
		e.debug.Close()
	}
	return e.eng.Close()
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
// ("default" for single-model sessions).
func (s *Session) Model() string { return s.client.Model() }

// Resumed reports whether this session's OT setup was expanded from a
// preamble's resumption ticket instead of running base OTs.
func (s *Session) Resumed() bool { return s.client.Resumed() }

// Close tears the session down, and with it the engine when this session
// owns one (NewLocalSession); sessions from a shared LocalEngine leave the
// engine running.
func (s *Session) Close() error {
	s.client.Close()
	if s.ownsEngine {
		return s.engine.Close()
	}
	return nil
}
