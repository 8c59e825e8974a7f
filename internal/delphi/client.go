package delphi

import (
	"fmt"
	"io"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/garble"
	"privinf/internal/obs"
	"privinf/internal/transport"
)

// Client is the data-owning party. It learns only the final inference
// output; the server's weights never leave the server.
type Client struct {
	party

	enc *bfv.SeededEncryptor
	dec *bfv.Decryptor

	// pres is the FIFO buffer of completed pre-computes; RunOffline
	// appends one, RunOnline consumes the oldest.
	pres []*clientPre
}

// clientPre is one buffered pre-compute's client-side state.
type clientPre struct {
	r      [][]uint64 // masks r_i per linear layer
	cshare [][]uint64 // c_i = W_i r_i - s_i per linear layer
	gcPre
}

// gcInputs lists, per ReLU layer, the circuit input values the client
// knows offline, unit-major: b = c_i[u], then r = r_{i+1}[u].
func (pre *clientPre) gcInputs() [][]uint64 {
	out := make([][]uint64, len(pre.r)-1)
	for layer := range out {
		out[layer] = make([]uint64, 0, 2*len(pre.cshare[layer]))
		for u, b := range pre.cshare[layer] {
			out[layer] = append(out[layer], b, pre.r[layer+1][u])
		}
	}
	return out
}

// NewClient constructs the client side for the model meta describes. The
// matvec plans and ReLU circuits are derived from meta (the circuits come
// from the process-wide table, so a reconnect builds none). entropy may be
// nil (crypto/rand).
func NewClient(conn transport.MsgConn, cfg Config, meta ModelMeta, entropy io.Reader) (*Client, error) {
	d, err := derive(cfg.HEParams, meta)
	if err != nil {
		return nil, err
	}
	p, err := newParty(conn, cfg, &d, entropy)
	if err != nil {
		return nil, err
	}
	return &Client{party: p}, nil
}

// useKeys points the session's encryptor and decryptor at the pair's sk —
// uploads are seeded secret-key encryptions — and sends its pk, seed ‖ b,
// for the server's re-randomization. Every connect sends it: the server
// keeps no key past its session.
func (c *Client) useKeys(keys HEKeyPair) error {
	c.enc = bfv.NewSeededEncryptor(c.cfg.HEParams, keys.SK, c.entropy)
	c.dec = bfv.NewDecryptor(c.cfg.HEParams, keys.SK)
	if err := c.conn.Send(keys.PK); err != nil {
		return fmt.Errorf("delphi: client setup: %w", err)
	}
	return nil
}

// Setup draws a fresh HE key pair from the session's entropy, sends the
// public key, and runs base-OT setup: SetupKeys on a new pair.
func (c *Client) Setup() error {
	keys, err := NewHEKeyPair(c.cfg.HEParams, c.entropy)
	if err != nil {
		return err
	}
	return c.SetupKeys(keys, nil, nil)
}

// RunOffline executes the client side of one pre-compute.
func (c *Client) RunOffline() (OfflineReport, error) {
	start := time.Now()
	sent0, recv0 := c.conn.SentBytes(), c.conn.RecvBytes()
	var rep OfflineReport

	pre := &clientPre{}
	heStart := time.Now()
	if err := c.offlineHE(pre); err != nil {
		return rep, err
	}
	rep.HEDuration = time.Since(heStart)

	if err := c.offlineGC(&pre.gcPre, c.cfg.Variant == ClientGarbler, pre.gcInputs(), &rep); err != nil {
		return rep, err
	}
	c.pres = append(c.pres, pre)

	rep.Duration = time.Since(start)
	rep.BytesSent = c.conn.SentBytes() - sent0
	rep.BytesRecv = c.conn.RecvBytes() - recv0
	recordClientOffline(rep)
	return rep, nil
}

// Buffered returns the number of pre-computes ready for online inferences.
func (c *Client) Buffered() int { return len(c.pres) }

// offlineHE samples the per-layer masks r_i, sends their seeded
// encryptions, and decrypts the returned shares c_i = W_i r_i - s_i from
// the responses' read slots.
func (c *Client) offlineHE(pre *clientPre) error {
	L := len(c.meta.Dims)
	pre.r = make([][]uint64, L)
	for i := 0; i < L; i++ {
		pre.r[i] = c.sharing.RandomVec(c.meta.Dims[i].In)
		for _, up := range c.plans[i].EncryptUploads(c.enc, pre.r[i]) {
			raw, err := up.MarshalBinary()
			if err != nil {
				return err
			}
			if err := c.conn.Send(raw); err != nil {
				return fmt.Errorf("delphi: offline HE send layer %d: %w", i, err)
			}
		}
	}

	pre.cshare = make([][]uint64, L)
	for i := 0; i < L; i++ {
		plan := c.plans[i]
		rs := make([]bfv.Response, plan.NumOutputCts())
		for oc := range rs {
			raw, err := c.conn.Recv()
			if err != nil {
				return fmt.Errorf("delphi: offline HE recv layer %d: %w", i, err)
			}
			if rs[oc], err = plan.ParseResponse(raw, oc); err != nil {
				return fmt.Errorf("delphi: offline HE layer %d: %w", i, err)
			}
		}
		pre.cshare[i] = plan.DecryptResponses(c.dec, rs)
	}
	return nil
}

// RunOnline executes the client side of one inference on input x
// (field-encoded, length Dims[0].In), consuming the current pre-compute.
// It returns the network output shares reconstructed — the inference
// result, which only the client learns.
func (c *Client) RunOnline(x []uint64) ([]uint64, OnlineReport, error) {
	var rep OnlineReport
	if len(x) != c.meta.Dims[0].In {
		return nil, rep, fmt.Errorf("delphi: input length %d, want %d", len(x), c.meta.Dims[0].In)
	}
	if len(c.pres) == 0 {
		return nil, rep, fmt.Errorf("delphi: no pre-compute buffered; run the offline phase first")
	}
	pre := c.pres[0]
	c.pres[0], c.pres = nil, c.pres[1:]
	start := time.Now()
	sent0, recv0 := c.conn.SentBytes(), c.conn.RecvBytes()

	// Send x - r_0.
	d := make([]uint64, len(x))
	c.f.SubVec(d, x, pre.r[0])
	if err := c.sendVec(d); err != nil {
		return nil, rep, err
	}

	width := c.f.Bits()
	for layer := 0; layer < c.meta.NumReLULayers(); layer++ {
		layerSpan := obs.StartSpan(obsClientOnlineLayer)
		switch c.cfg.Variant {
		case ServerGarbler: // evaluator: a labels arrive direct, the decoded bits go back
			raw, err := c.conn.Recv()
			if err != nil {
				return nil, rep, err
			}
			if want := c.meta.Dims[layer].Out * width * garble.LabelSize; len(raw) != want {
				return nil, rep, fmt.Errorf("delphi: label payload %d bytes, want %d", len(raw), want)
			}
			bits, err := c.evaluateLayer(&pre.gcPre, layer, nil, raw)
			if err != nil {
				return nil, rep, err
			}
			if err := c.conn.Send(encodeBits(bits)); err != nil {
				return nil, rep, err
			}
		case ClientGarbler: // garbler: answer the server's d bits on the layer's bound a-label OTs
			// with their pads y, expanded again from the layer's secret seed
			y := make([]byte, c.meta.Dims[layer].Out*width*garble.LabelSize)
			garble.ExpandSeed(y, pre.seeds[layer])
			if err := c.otSend.SendPrecomputed(pre.sendOTs[layer], y); err != nil {
				return nil, rep, fmt.Errorf("delphi: label OT layer %d: %w", layer, err)
			}
		}
		layerSpan.End()
	}

	// Final layer: receive the server's share and reconstruct.
	last := len(c.meta.Dims) - 1
	ys, err := c.recvVec(c.meta.Dims[last].Out)
	if err != nil {
		return nil, rep, err
	}
	out := make([]uint64, len(ys))
	c.f.AddVec(out, ys, pre.cshare[last])

	rep.Duration = time.Since(start)
	rep.BytesSent = c.conn.SentBytes() - sent0
	rep.BytesRecv = c.conn.RecvBytes() - recv0
	if obs.Enabled() {
		obsClientOnline.Record(rep.Duration)
	}
	return out, rep, nil
}
