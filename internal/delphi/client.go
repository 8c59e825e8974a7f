package delphi

import (
	"fmt"
	"io"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/boolcirc"
	"privinf/internal/field"
	"privinf/internal/garble"
	"privinf/internal/obs"
	"privinf/internal/ss"
	"privinf/internal/transport"
)

// Client is the data-owning party. It learns only the final inference
// output; the server's weights never leave the server.
type Client struct {
	conn    transport.MsgConn
	cfg     Config
	meta    ModelMeta
	f       field.Field
	entropy io.Reader
	sharing *ss.Sharing

	sk      bfv.SecretKey
	enc     *bfv.Encryptor
	dec     *bfv.Decryptor
	encoder *bfv.Encoder

	// shared is the immutable client-side model artifact (matvec plans,
	// ReLU circuits). It may be private to this session (NewClient) or
	// reused across all of this client's sessions of the model
	// (NewClientWithShared); either way the Client only reads it.
	shared *ClientShared

	otEndpoint

	// pres is the FIFO buffer of completed pre-computes; RunOffline
	// appends one, RunOnline consumes the oldest.
	pres []*clientPre
}

// clientPre is one buffered pre-compute's client-side state.
type clientPre struct {
	r      [][]uint64          // masks r_i per linear layer
	cshare [][]uint64          // c_i = W_i r_i - s_i per linear layer
	stored []storedLayer       // SG: evaluator-side storage
	encs   [][]garble.Encoding // CG: garbler encodings
}

// NewClient constructs the client side with a private model artifact — the
// convenience path for one-off sessions. Repeat clients should build the
// artifact once with NewClientShared and use NewClientWithShared, so
// reconnects skip the per-session plan and circuit construction. entropy
// may be nil (crypto/rand).
func NewClient(conn transport.MsgConn, cfg Config, meta ModelMeta, entropy io.Reader) (*Client, error) {
	shared, err := NewClientShared(cfg.HEParams, meta)
	if err != nil {
		return nil, err
	}
	return NewClientWithShared(conn, cfg, shared, entropy)
}

// NewClientWithShared constructs the client side on a pre-built client
// artifact: no per-session plan layout or circuit building happens, so
// session setup cost is independent of model size. entropy may be nil
// (crypto/rand).
func NewClientWithShared(conn transport.MsgConn, cfg Config, shared *ClientShared, entropy io.Reader) (*Client, error) {
	if shared == nil {
		return nil, fmt.Errorf("delphi: nil shared client artifact")
	}
	if cfg.HEParams.T != shared.params.T || cfg.HEParams.N != shared.params.N {
		return nil, fmt.Errorf("delphi: session HE params (N=%d, T=%d) != artifact params (N=%d, T=%d)",
			cfg.HEParams.N, cfg.HEParams.T, shared.params.N, shared.params.T)
	}
	c := &Client{
		conn:    conn,
		cfg:     cfg,
		meta:    shared.meta,
		f:       shared.meta.fieldOf(),
		entropy: entropy,
		encoder: bfv.NewEncoder(cfg.HEParams),
		shared:  shared,
	}
	c.sharing = ss.New(c.f, entropy)
	return c, nil
}

// setupKeys obtains the session HE keys (fresh keygen, or the pair the
// HEKeyGen seam supplies) and sends the public key — the key-dependent
// setup work every full handshake pays. Resumed sessions install their
// cached pair instead (SetupResumed).
func (c *Client) setupKeys() error {
	var pk bfv.PublicKey
	c.sk, pk = c.cfg.keyGen(c.cfg.HEParams, c.entropy)
	c.enc = bfv.NewEncryptor(c.cfg.HEParams, pk, c.entropy)
	c.dec = bfv.NewDecryptor(c.cfg.HEParams, c.sk)
	raw, err := pk.MarshalBinary()
	if err != nil {
		return err
	}
	if err := c.conn.Send(raw); err != nil {
		return fmt.Errorf("delphi: client setup: %w", err)
	}
	return nil
}

// Setup generates HE keys, sends the public key, and runs base-OT setup.
func (c *Client) Setup() error {
	if err := c.setupKeys(); err != nil {
		return err
	}
	return c.setupOT(c.conn, c.cfg.Variant == ClientGarbler, nil, nil, c.entropy)
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

	gcStart := time.Now()
	var err error
	switch c.cfg.Variant {
	case ServerGarbler:
		err = c.offlineReceiveGC(pre)
		rep.GCDuration = time.Since(gcStart)
		if err == nil {
			otStart := time.Now()
			err = c.offlineOTReceive(pre)
			rep.OTDuration = time.Since(otStart)
		}
		for _, l := range pre.stored {
			rep.GCStoreBytes += l.bytes
		}
	case ClientGarbler:
		err = c.offlineGarbleSend(pre)
		rep.GCDuration = time.Since(gcStart)
	}
	if err != nil {
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

// offlineHE samples the per-layer masks r_i, sends their encryptions, and
// decrypts the returned shares c_i = W_i r_i - s_i.
func (c *Client) offlineHE(pre *clientPre) error {
	L := len(c.meta.Dims)
	pre.r = make([][]uint64, L)
	for i := 0; i < L; i++ {
		pre.r[i] = c.sharing.RandomVec(c.meta.Dims[i].In)
		for _, ct := range c.shared.plans[i].EncryptVector(c.enc, pre.r[i]) {
			raw, err := ct.MarshalBinary()
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
		plan := c.shared.plans[i]
		cts := make([]bfv.Ciphertext, plan.NumOutputCts())
		for oc := range cts {
			raw, err := c.conn.Recv()
			if err != nil {
				return fmt.Errorf("delphi: offline HE recv layer %d: %w", i, err)
			}
			if err := cts[oc].UnmarshalBinary(raw); err != nil {
				return err
			}
		}
		// One batch decrypt per layer: the inverse NTTs fan out instead of
		// running per ciphertext between Recv calls.
		pre.cshare[i] = plan.ExtractResult(c.dec.DecryptCoeffsBatch(cts))
	}
	return nil
}

// offlineReceiveGC (Server-Garbler) stores the garbled circuits — the
// 18.2 KB/ReLU client-storage burden the paper's Figure 3 quantifies.
func (c *Client) offlineReceiveGC(pre *clientPre) error {
	pre.stored = make([]storedLayer, c.meta.NumReLULayers())
	for layer := 0; layer < c.meta.NumReLULayers(); layer++ {
		circ := c.shared.circuits[layer]
		units := c.meta.Dims[layer].Out
		payload, err := c.conn.Recv()
		if err != nil {
			return fmt.Errorf("delphi: recv GC layer %d: %w", layer, err)
		}
		tb := garble.TableBytes(circ)
		perUnit := tb + garble.LabelSize + len(circ.Outputs)
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
			st.decode[u] = append([]byte(nil), payload[off:off+len(circ.Outputs)]...)
			off += len(circ.Outputs)
		}
		pre.stored[layer] = st
	}
	return nil
}

// offlineOTReceive (Server-Garbler) obtains labels for the client's
// offline-known inputs: its HE share c_i and the next-layer mask r_{i+1}.
func (c *Client) offlineOTReceive(pre *clientPre) error {
	width := c.f.Bits()
	for layer := 0; layer < c.meta.NumReLULayers(); layer++ {
		units := c.meta.Dims[layer].Out
		choices := make([]bool, 0, units*2*width)
		for u := 0; u < units; u++ {
			choices = append(choices, boolcirc.PackBits(pre.cshare[layer][u], width)...)
			choices = append(choices, boolcirc.PackBits(pre.r[layer+1][u], width)...)
		}
		msgs, err := c.otRecv.Receive(choices)
		if err != nil {
			return fmt.Errorf("delphi: offline OT layer %d: %w", layer, err)
		}
		labels := otToLabels(msgs)
		st := &pre.stored[layer]
		for u := 0; u < units; u++ {
			st.known[u] = labels[u*2*width : (u+1)*2*width]
		}
		st.bytes += uint64(len(labels) * garble.LabelSize)
	}
	return nil
}

// offlineGarbleSend (Client-Garbler) garbles every ReLU unit on the client
// and ships tables plus the garbler's own active input labels to the
// server, which becomes the storing party.
func (c *Client) offlineGarbleSend(pre *clientPre) error {
	width := c.f.Bits()
	pre.encs = make([][]garble.Encoding, c.meta.NumReLULayers())
	for layer := 0; layer < c.meta.NumReLULayers(); layer++ {
		circ := c.shared.circuits[layer]
		units := c.meta.Dims[layer].Out
		pre.encs[layer] = make([]garble.Encoding, units)
		perUnit := garble.TableBytes(circ) + garble.LabelSize + len(circ.Outputs) + 2*width*garble.LabelSize
		payload := make([]byte, 0, units*perUnit)
		bases := make([]uint64, units)
		for u := range bases {
			bases[u] = gateBase(layer, u)
		}
		for u, g := range c.cfg.garbleBatch(circ, c.entropy, bases) {
			pre.encs[layer][u] = g.Encoding
			payload = append(payload, encodeLabels(g.Tables)...)
			constLb := g.Encoding.EncodeInput(boolcirc.ConstOne, true)
			payload = append(payload, constLb[:]...)
			payload = append(payload, g.DecodeBits...)
			// Garbler-known inputs: b = c_i bits, then r = r_{i+1} bits.
			bBits := boolcirc.PackBits(pre.cshare[layer][u], width)
			rBits := boolcirc.PackBits(pre.r[layer+1][u], width)
			for k, bit := range bBits {
				lb := g.Encoding.EncodeInput(1+width+k, bit)
				payload = append(payload, lb[:]...)
			}
			for k, bit := range rBits {
				lb := g.Encoding.EncodeInput(1+2*width+k, bit)
				payload = append(payload, lb[:]...)
			}
		}
		if err := c.conn.Send(payload); err != nil {
			return fmt.Errorf("delphi: send GC layer %d: %w", layer, err)
		}
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
	c.pres = c.pres[1:]
	start := time.Now()
	sent0, recv0 := c.conn.SentBytes(), c.conn.RecvBytes()

	// Send x - r_0.
	d := make([]uint64, len(x))
	c.f.SubVec(d, x, pre.r[0])
	if err := c.conn.Send(encodeVec(d)); err != nil {
		return nil, rep, err
	}

	width := c.f.Bits()
	for layer := 0; layer < c.meta.NumReLULayers(); layer++ {
		layerSpan := obs.StartSpan(obsClientOnlineLayer)
		units := c.meta.Dims[layer].Out
		switch c.cfg.Variant {
		case ServerGarbler:
			// Receive the garbler's share labels, evaluate, return the
			// decoded masked activations.
			raw, err := c.conn.Recv()
			if err != nil {
				return nil, rep, err
			}
			aLabels, err := decodeLabels(raw, units*width)
			if err != nil {
				return nil, rep, err
			}
			circ := c.shared.circuits[layer]
			st := pre.stored[layer]
			outBits := make([]bool, 0, units*width)
			inputs := make([]garble.Label, circ.NumInputs)
			for u := 0; u < units; u++ {
				inputs[boolcirc.ConstOne] = st.constLb[u]
				copy(inputs[1:1+width], aLabels[u*width:(u+1)*width])
				copy(inputs[1+width:], st.known[u])
				bits, err := garble.Eval(circ, st.tables[u], st.decode[u], inputs, gateBase(layer, u))
				if err != nil {
					return nil, rep, fmt.Errorf("delphi: eval layer %d unit %d: %w", layer, u, err)
				}
				outBits = append(outBits, bits...)
			}
			if err := c.conn.Send(encodeBits(outBits)); err != nil {
				return nil, rep, err
			}
		case ClientGarbler:
			// Serve the server's online OT for its share labels.
			pairs := make([][2]garble.Label, 0, units*width)
			for u := 0; u < units; u++ {
				enc := pre.encs[layer][u]
				for k := 0; k < width; k++ {
					f0, f1 := enc.LabelPair(1 + k)
					pairs = append(pairs, [2]garble.Label{f0, f1})
				}
			}
			if err := c.otSend.Send(labelsToOT(pairs)); err != nil {
				return nil, rep, fmt.Errorf("delphi: online OT layer %d: %w", layer, err)
			}
		}
		layerSpan.End()
	}

	// Final layer: receive the server's share and reconstruct.
	raw, err := c.conn.Recv()
	if err != nil {
		return nil, rep, err
	}
	last := len(c.meta.Dims) - 1
	ys, err := decodeVec(raw, c.meta.Dims[last].Out)
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
