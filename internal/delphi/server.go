package delphi

import (
	"fmt"
	"io"
	"sync"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/transport"
)

// Server is the model-owning party. It never sees the client's input or any
// intermediate activation in the clear.
type Server struct {
	party

	// shared is the immutable model artifact (plans, NTT-domain weight
	// plaintexts, ReLU circuits), typically shared by N concurrent
	// sessions; the Server only reads it.
	shared *SharedModel

	// pres is the FIFO buffer of completed pre-computes; RunOffline
	// appends one, RunOnline consumes the oldest. This is the pre-compute
	// buffer the paper's storage analysis is about.
	pres []*serverPre

	// pk is the client's public key, which re-randomizes every response.
	// It arrives seeded on every connect; its a expands on the first
	// pre-compute, so setup does no key work.
	pk bfv.PublicKey
}

// serverPre is one buffered pre-compute's server-side state.
type serverPre struct {
	masks [][]uint64 // s_i per linear layer
	gcPre
}

// NewServerShared constructs the server side of a session on a pre-built
// model artifact: no per-session weight encoding or circuit building
// happens, so session setup cost is independent of model size. entropy may
// be nil (crypto/rand).
func NewServerShared(conn transport.MsgConn, cfg Config, shared *SharedModel, entropy io.Reader) (*Server, error) {
	if shared == nil {
		return nil, fmt.Errorf("delphi: nil shared model")
	}
	p, err := newParty(conn, cfg, &shared.derived, entropy)
	if err != nil {
		return nil, err
	}
	return &Server{party: p, shared: shared}, nil
}

// Setup runs the session handshake: receives the client's seeded HE public
// key, which it keeps to re-randomize responses, and performs base-OT
// setup. The model-side work (weight encoding, circuit building) lives in
// the SharedModel artifact, so Setup does no per-session model processing.
func (s *Server) Setup() error {
	if err := s.recvKey(); err != nil {
		return err
	}
	return s.setupOT(s.cfg.Variant == ServerGarbler, nil, nil)
}

// recvKey receives and strictly parses the client's seeded public key.
func (s *Server) recvKey() error {
	raw, err := s.conn.Recv()
	if err != nil {
		return fmt.Errorf("delphi: server setup: %w", err)
	}
	if s.pk, err = bfv.ParsePublicKey(s.cfg.HEParams.N, raw); err != nil {
		return fmt.Errorf("delphi: server setup: %w", err)
	}
	return nil
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

	if err := s.offlineGC(&pre.gcPre, s.cfg.Variant == ServerGarbler, nil, &rep); err != nil {
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

// offlineHE receives the seeded uploads E(r_i) for every layer, computes
// E(W_i r_i - s_i) (optionally layer-parallel), and sends each result as a
// response: re-randomized under the client's key, flooded, switched to
// 2^k, c0 at the read slots only.
func (s *Server) offlineHE(pre *serverPre) error {
	L := len(s.meta.Dims)
	s.pk = s.pk.Expand()
	inputs := make([][]bfv.Ciphertext, L)
	for i := 0; i < L; i++ {
		n := s.plans[i].NumInputCts()
		inputs[i] = make([]bfv.Ciphertext, n)
		for c := 0; c < n; c++ {
			raw, err := s.conn.Recv()
			if err != nil {
				return fmt.Errorf("delphi: offline HE recv layer %d: %w", i, err)
			}
			up, err := s.cfg.HEParams.ParseUpload(raw)
			if err != nil {
				return fmt.Errorf("delphi: offline HE layer %d: %w", i, err)
			}
			inputs[i][c] = up.Ciphertext()
		}
	}

	pre.masks = make([][]uint64, L)
	seeds := make([][]byte, L)
	results := make([][]bfv.Response, L)
	workers := s.cfg.LPHEWorkers
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < L; i++ {
		// Masks and response seeds are drawn serially: the entropy source
		// is not concurrency-safe and determinism matters for tests.
		pre.masks[i] = s.sharing.RandomVec(s.meta.Dims[i].Out)
		seeds[i] = make([]byte, s.plans[i].NumOutputCts()*bfv.SeedSize)
		if err := s.draw(seeds[i]); err != nil {
			return fmt.Errorf("delphi: response seeds: %w", err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = s.applyLayer(i, pre.masks[i], inputs[i], seeds[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < L; i++ {
		for _, r := range results[i] {
			raw, err := r.MarshalBinary()
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

// applyLayer computes the responses E(W_i r_i - s_i) for one layer (one
// LPHE job), response oc's randomness expanding from seeds' oc-th seed.
func (s *Server) applyLayer(i int, mask []uint64, cts []bfv.Ciphertext, seeds []byte) []bfv.Response {
	plan := s.plans[i]
	nIn := plan.NumInputCts()
	out := make([]bfv.Response, plan.NumOutputCts())
	for oc := range out {
		acc := bfv.ZeroCiphertext(s.cfg.HEParams)
		for ic := 0; ic < nIn; ic++ {
			bfv.AccumulateMulPlain(&acc, cts[ic], s.shared.weights[i][oc*nIn+ic])
		}
		// Respond takes the lazy accumulator as it is and consumes it.
		out[oc] = plan.Respond(&acc, mask, oc, s.pk, [bfv.SeedSize]byte(seeds[oc*bfv.SeedSize:]))
	}
	return out
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
	s.pres[0], s.pres = nil, s.pres[1:]

	d, err := s.recvVec(s.meta.Dims[0].In)
	if err != nil {
		return rep, fmt.Errorf("delphi: online recv input share: %w", err)
	}

	width := s.f.Bits()
	L := len(s.meta.Dims)
	for i := 0; i < L; i++ {
		// ⟨y⟩_s = W(x - r) + B + s, computed in the clear on shares.
		ys := s.shared.model.Linear[i].MatVec(s.f, d)
		s.f.AddVec(ys, ys, pre.masks[i])

		if i == L-1 {
			if err := s.sendVec(ys); err != nil {
				return rep, err
			}
			break
		}

		// Either way the ReLU layer yields the masked next-layer input
		// x' - r' as decoded output bits.
		var bits []bool
		switch s.cfg.Variant {
		case ServerGarbler: // garbler: a labels go direct, the client returns the bits
			if err := s.sendActive(pre.seeds[i], ys); err != nil {
				return rep, err
			}
			bitsRaw, err := s.conn.Recv()
			if err != nil {
				return rep, err
			}
			if bits, err = decodeBits(bitsRaw, len(ys)*width); err != nil {
				return rep, err
			}
		case ClientGarbler: // evaluator: a labels come by derandomized OT, then evaluate
			aLabels, err := s.otRecv.ReceivePrecomputed(pre.recvOTs[i], valueBits(ys, width))
			if err != nil {
				return rep, fmt.Errorf("delphi: label OT layer %d: %w", i, err)
			}
			if bits, err = s.evaluateLayer(&pre.gcPre, i, aLabels, nil); err != nil {
				return rep, err
			}
		}
		d = bitsToValues(bits, width)
	}

	rep.Duration = time.Since(start)
	rep.BytesSent = s.conn.SentBytes() - sent0
	rep.BytesRecv = s.conn.RecvBytes() - recv0
	return rep, nil
}
