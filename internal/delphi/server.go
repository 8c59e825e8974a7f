package delphi

import (
	"fmt"
	"io"
	"sync"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/boolcirc"
	"privinf/internal/field"
	"privinf/internal/garble"
	"privinf/internal/nn"
	"privinf/internal/ss"
	"privinf/internal/transport"
)

// Server is the model-owning party. It never sees the client's input or any
// intermediate activation in the clear.
type Server struct {
	conn    transport.MsgConn
	cfg     Config
	meta    ModelMeta
	f       field.Field
	entropy io.Reader
	sharing *ss.Sharing

	// shared is the immutable model artifact (plans, NTT-domain weight
	// plaintexts, ReLU circuits). It may be private to this session
	// (NewServer) or shared by N concurrent sessions (NewServerShared);
	// either way the Server only reads it.
	shared *SharedModel

	otEndpoint

	// pres is the FIFO buffer of completed pre-computes; RunOffline
	// appends one, RunOnline consumes the oldest. This is the pre-compute
	// buffer the paper's storage analysis is about.
	pres []*serverPre
}

// serverPre is one buffered pre-compute's server-side state.
type serverPre struct {
	masks  [][]uint64          // s_i per linear layer
	encs   [][]garble.Encoding // SG: per ReLU layer, per unit
	stored []storedLayer       // CG: evaluator-side storage
}

// storedLayer is what the evaluator holds per ReLU layer between phases.
type storedLayer struct {
	tables  [][]garble.Label // per unit
	decode  [][]byte         // per unit
	constLb []garble.Label   // per unit: active const-one label
	// Labels for inputs known offline (b = client share, r = next mask):
	// SG: obtained by the client via OT; CG: garbler-encoded, sent with GC.
	known [][]garble.Label // per unit, 2*width labels (b then r)
	bytes uint64
}

// NewServer constructs the server side of a session with a private model
// artifact — the convenience path for one-off pairs (tests, local runs).
// Serving engines that accept many sessions of one model should build the
// artifact once with NewSharedModel and use NewServerShared. entropy may be
// nil (crypto/rand).
func NewServer(conn transport.MsgConn, cfg Config, model *nn.Lowered, entropy io.Reader) (*Server, error) {
	shared, err := NewSharedModel(cfg.HEParams, model)
	if err != nil {
		return nil, err
	}
	return NewServerShared(conn, cfg, shared, entropy)
}

// NewServerShared constructs the server side of a session on a pre-built
// model artifact: no per-session weight encoding or circuit building
// happens, so session setup cost is independent of model size. entropy may
// be nil (crypto/rand).
func NewServerShared(conn transport.MsgConn, cfg Config, shared *SharedModel, entropy io.Reader) (*Server, error) {
	if shared == nil {
		return nil, fmt.Errorf("delphi: nil shared model")
	}
	if cfg.HEParams.T != shared.params.T || cfg.HEParams.N != shared.params.N {
		return nil, fmt.Errorf("delphi: session HE params (N=%d, T=%d) != artifact params (N=%d, T=%d)",
			cfg.HEParams.N, cfg.HEParams.T, shared.params.N, shared.params.T)
	}
	s := &Server{
		conn:    conn,
		cfg:     cfg,
		meta:    shared.meta,
		f:       shared.meta.fieldOf(),
		entropy: entropy,
		shared:  shared,
	}
	s.sharing = ss.New(s.f, entropy)
	return s, nil
}

// buildCircuits constructs the per-ReLU-layer circuits (shared by client
// and server; the circuit is public).
func buildCircuits(meta ModelMeta) []*boolcirc.Circuit {
	out := make([]*boolcirc.Circuit, meta.NumReLULayers())
	cache := map[uint]*boolcirc.Circuit{}
	for i := range out {
		shift := meta.Shifts[i]
		c, ok := cache[shift]
		if !ok {
			c = boolcirc.BuildReLU(boolcirc.ReLUSpec{P: meta.P, Frac: shift})
			cache[shift] = c
		}
		out[i] = c
	}
	return out
}

// Setup runs the session handshake: receives and validates the client's
// per-session HE public key and performs base-OT setup. The model-side work
// (weight encoding, circuit building) lives in the SharedModel artifact, so
// Setup does no per-session model processing.
func (s *Server) Setup() error {
	pkRaw, err := s.conn.Recv()
	if err != nil {
		return fmt.Errorf("delphi: server setup: %w", err)
	}
	var pk bfv.PublicKey
	if err := pk.UnmarshalBinary(pkRaw); err != nil {
		return err
	}
	return s.setupOT(s.conn, s.cfg.Variant == ServerGarbler, nil, nil, s.entropy)
}

// RunOffline executes the server side of one pre-compute.
func (s *Server) RunOffline() (OfflineReport, error) {
	start := time.Now()
	sent0, recv0 := s.conn.SentBytes(), s.conn.RecvBytes()
	var rep OfflineReport

	pre := &serverPre{}
	heStart := time.Now()
	if err := s.offlineHE(pre); err != nil {
		return rep, err
	}
	rep.HEDuration = time.Since(heStart)

	gcStart := time.Now()
	var err error
	switch s.cfg.Variant {
	case ServerGarbler:
		err = s.offlineGarble(pre)
		rep.GCDuration = time.Since(gcStart)
		if err == nil {
			otStart := time.Now()
			err = s.offlineOTSend(pre)
			rep.OTDuration = time.Since(otStart)
		}
	case ClientGarbler:
		err = s.offlineReceiveGC(pre)
		rep.GCDuration = time.Since(gcStart)
		for _, l := range pre.stored {
			rep.GCStoreBytes += l.bytes
		}
	}
	if err != nil {
		return rep, err
	}
	s.pres = append(s.pres, pre)

	rep.Duration = time.Since(start)
	rep.BytesSent = s.conn.SentBytes() - sent0
	rep.BytesRecv = s.conn.RecvBytes() - recv0
	return rep, nil
}

// Buffered returns the number of pre-computes ready for online inferences.
func (s *Server) Buffered() int { return len(s.pres) }

// offlineHE receives E(r_i) for every layer, computes E(W_i r_i - s_i)
// (optionally layer-parallel), and returns the results.
func (s *Server) offlineHE(pre *serverPre) error {
	L := len(s.meta.Dims)
	inputs := make([][]bfv.Ciphertext, L)
	for i := 0; i < L; i++ {
		n := s.shared.plans[i].NumInputCts()
		inputs[i] = make([]bfv.Ciphertext, n)
		for c := 0; c < n; c++ {
			raw, err := s.conn.Recv()
			if err != nil {
				return fmt.Errorf("delphi: offline HE recv layer %d: %w", i, err)
			}
			if err := inputs[i][c].UnmarshalBinary(raw); err != nil {
				return err
			}
		}
	}

	pre.masks = make([][]uint64, L)
	results := make([][]bfv.Ciphertext, L)
	workers := s.cfg.LPHEWorkers
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < L; i++ {
		// Masks are sampled serially: the sharing's entropy source is not
		// concurrency-safe and determinism matters for tests.
		pre.masks[i] = s.sharing.RandomVec(s.meta.Dims[i].Out)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = s.applyLayer(i, pre.masks[i], inputs[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < L; i++ {
		for _, ct := range results[i] {
			raw, err := ct.MarshalBinary()
			if err != nil {
				return err
			}
			if err := s.conn.Send(raw); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyLayer computes E(W_i r_i - s_i) for one layer (one LPHE job).
func (s *Server) applyLayer(i int, mask []uint64, cts []bfv.Ciphertext) []bfv.Ciphertext {
	plan := s.shared.plans[i]
	nIn := plan.NumInputCts()
	out := make([]bfv.Ciphertext, plan.NumOutputCts())
	for oc := range out {
		acc := bfv.ZeroCiphertext(s.cfg.HEParams)
		for ic := 0; ic < nIn; ic++ {
			bfv.AccumulateMulPlain(&acc, cts[ic], s.shared.weights[i][oc*nIn+ic])
		}
		// One canonical pass after the lazy accumulation, before the
		// fully-reduced mask subtraction.
		bfv.CanonicalizeCt(&acc)
		// The accumulator is dead after the mask subtraction, so subtract
		// in place rather than allocating a fresh ciphertext.
		bfv.SubPlainInto(&acc, plan.MaskPlaintext(s.shared.encoder, mask, oc))
		out[oc] = acc
	}
	return out
}

// offlineGarble (Server-Garbler) garbles every ReLU unit and ships tables,
// const labels and decode bits to the client.
func (s *Server) offlineGarble(pre *serverPre) error {
	width := s.f.Bits()
	pre.encs = make([][]garble.Encoding, s.meta.NumReLULayers())
	for layer := 0; layer < s.meta.NumReLULayers(); layer++ {
		c := s.shared.circuits[layer]
		units := s.meta.Dims[layer].Out
		pre.encs[layer] = make([]garble.Encoding, units)
		payload := make([]byte, 0, units*(garble.TableBytes(c)+garble.LabelSize+width))
		bases := make([]uint64, units)
		for u := range bases {
			bases[u] = gateBase(layer, u)
		}
		// All units of the layer garble as one batch (bit-identical to the
		// old per-unit Garble loop); a serving engine's GarbleFunc may
		// additionally coalesce units across concurrent sessions.
		for u, g := range s.cfg.garbleBatch(c, s.entropy, bases) {
			pre.encs[layer][u] = g.Encoding
			payload = append(payload, encodeLabels(g.Tables)...)
			constLb := g.Encoding.EncodeInput(boolcirc.ConstOne, true)
			payload = append(payload, constLb[:]...)
			payload = append(payload, g.DecodeBits...)
		}
		if err := s.conn.Send(payload); err != nil {
			return fmt.Errorf("delphi: send GC layer %d: %w", layer, err)
		}
	}
	return nil
}

// offlineOTSend (Server-Garbler) transfers the labels for the client's
// offline-known inputs (its share c_i and next mask r_{i+1}) via OT.
func (s *Server) offlineOTSend(pre *serverPre) error {
	width := s.f.Bits()
	for layer := 0; layer < s.meta.NumReLULayers(); layer++ {
		units := s.meta.Dims[layer].Out
		pairs := make([][2]garble.Label, 0, units*2*width)
		for u := 0; u < units; u++ {
			enc := pre.encs[layer][u]
			for k := 0; k < 2*width; k++ {
				// User inputs b then r start at circuit index 1+width.
				f0, f1 := enc.LabelPair(1 + width + k)
				pairs = append(pairs, [2]garble.Label{f0, f1})
			}
		}
		if err := s.otSend.Send(labelsToOT(pairs)); err != nil {
			return fmt.Errorf("delphi: offline OT layer %d: %w", layer, err)
		}
	}
	return nil
}

// offlineReceiveGC (Client-Garbler) receives and stores the garbled
// circuits plus the garbler's own active input labels.
func (s *Server) offlineReceiveGC(pre *serverPre) error {
	width := s.f.Bits()
	pre.stored = make([]storedLayer, s.meta.NumReLULayers())
	for layer := 0; layer < s.meta.NumReLULayers(); layer++ {
		c := s.shared.circuits[layer]
		units := s.meta.Dims[layer].Out
		payload, err := s.conn.Recv()
		if err != nil {
			return fmt.Errorf("delphi: recv GC layer %d: %w", layer, err)
		}
		tb := garble.TableBytes(c)
		perUnit := tb + garble.LabelSize + len(c.Outputs) + 2*width*garble.LabelSize
		if len(payload) != units*perUnit {
			return fmt.Errorf("delphi: GC layer %d payload %d bytes, want %d", layer, len(payload), units*perUnit)
		}
		st := storedLayer{
			tables:  make([][]garble.Label, units),
			decode:  make([][]byte, units),
			constLb: make([]garble.Label, units),
			known:   make([][]garble.Label, units),
			bytes:   uint64(len(payload)),
		}
		off := 0
		for u := 0; u < units; u++ {
			tbl, err := decodeLabels(payload[off:off+tb], tb/garble.LabelSize)
			if err != nil {
				return err
			}
			off += tb
			st.tables[u] = tbl
			copy(st.constLb[u][:], payload[off:off+garble.LabelSize])
			off += garble.LabelSize
			st.decode[u] = append([]byte(nil), payload[off:off+len(c.Outputs)]...)
			off += len(c.Outputs)
			known, err := decodeLabels(payload[off:off+2*width*garble.LabelSize], 2*width)
			if err != nil {
				return err
			}
			off += 2 * width * garble.LabelSize
			st.known[u] = known
		}
		pre.stored[layer] = st
	}
	return nil
}

// RunOnline executes the server side of one inference using the current
// pre-compute, which is consumed.
func (s *Server) RunOnline() (OnlineReport, error) {
	start := time.Now()
	sent0, recv0 := s.conn.SentBytes(), s.conn.RecvBytes()
	var rep OnlineReport
	if len(s.pres) == 0 {
		return rep, fmt.Errorf("delphi: no pre-compute buffered; run the offline phase first")
	}
	pre := s.pres[0]
	s.pres = s.pres[1:]

	raw, err := s.conn.Recv()
	if err != nil {
		return rep, fmt.Errorf("delphi: online recv input share: %w", err)
	}
	d, err := decodeVec(raw, s.meta.Dims[0].In)
	if err != nil {
		return rep, err
	}

	width := s.f.Bits()
	L := len(s.meta.Dims)
	for i := 0; i < L; i++ {
		// ⟨y⟩_s = W(x - r) + B + s, computed in the clear on shares.
		ys := s.shared.model.Linear[i].MatVec(s.f, d)
		s.f.AddVec(ys, ys, pre.masks[i])

		if i == L-1 {
			if err := s.conn.Send(encodeVec(ys)); err != nil {
				return rep, err
			}
			break
		}

		switch s.cfg.Variant {
		case ServerGarbler:
			// Send labels for the garbler's own share bits.
			units := s.meta.Dims[i].Out
			labels := make([]garble.Label, 0, units*width)
			for u := 0; u < units; u++ {
				enc := pre.encs[i][u]
				bits := boolcirc.PackBits(ys[u], width)
				for k, b := range bits {
					labels = append(labels, enc.EncodeInput(1+k, b))
				}
			}
			if err := s.conn.Send(encodeLabels(labels)); err != nil {
				return rep, err
			}
			// Receive the masked next-layer input the client decoded.
			bitsRaw, err := s.conn.Recv()
			if err != nil {
				return rep, err
			}
			bits, err := decodeBits(bitsRaw, units*width)
			if err != nil {
				return rep, err
			}
			d = make([]uint64, units)
			for u := 0; u < units; u++ {
				d[u] = boolcirc.UnpackBits(bits[u*width : (u+1)*width])
			}
		case ClientGarbler:
			// Obtain labels for our share bits by OT, then evaluate.
			choices := valueBits(ys, width)
			msgs, err := s.otRecv.Receive(choices)
			if err != nil {
				return rep, fmt.Errorf("delphi: online OT layer %d: %w", i, err)
			}
			aLabels := otToLabels(msgs)
			d, err = s.evaluateLayer(pre, i, aLabels)
			if err != nil {
				return rep, err
			}
		}
	}

	rep.Duration = time.Since(start)
	rep.BytesSent = s.conn.SentBytes() - sent0
	rep.BytesRecv = s.conn.RecvBytes() - recv0
	return rep, nil
}

// evaluateLayer (Client-Garbler) evaluates the stored garbled units of a
// ReLU layer, returning the masked next-layer input x' - r'.
func (s *Server) evaluateLayer(pre *serverPre, layer int, aLabels []garble.Label) ([]uint64, error) {
	width := s.f.Bits()
	c := s.shared.circuits[layer]
	st := pre.stored[layer]
	units := s.meta.Dims[layer].Out
	out := make([]uint64, units)
	inputs := make([]garble.Label, c.NumInputs)
	for u := 0; u < units; u++ {
		inputs[boolcirc.ConstOne] = st.constLb[u]
		copy(inputs[1:1+width], aLabels[u*width:(u+1)*width])
		copy(inputs[1+width:], st.known[u])
		bits, err := garble.Eval(c, st.tables[u], st.decode[u], inputs, gateBase(layer, u))
		if err != nil {
			return nil, fmt.Errorf("delphi: eval layer %d unit %d: %w", layer, u, err)
		}
		out[u] = boolcirc.UnpackBits(bits)
	}
	return out, nil
}
