package delphi

import (
	"crypto/rand"
	"fmt"
	"io"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/boolcirc"
	"privinf/internal/field"
	"privinf/internal/garble"
	"privinf/internal/ot"
	"privinf/internal/ss"
	"privinf/internal/transport"
)

// party is the session state Client and Server share, and the receiver of
// the two garbled-circuit roles. Which party plays which role is the whole
// difference between the protocol variants, so each role is written once
// here and the endpoints only choose.
//
// A ReLU unit's circuit inputs are [const-one | a | b | r], width bits each:
// a is the server's share of the layer output (known online), b the
// client's share c_i and r its next mask r_{i+1} (both known offline).
type party struct {
	conn     transport.MsgConn
	cfg      Config
	meta     ModelMeta
	f        field.Field
	entropy  io.Reader
	sharing  *ss.Sharing
	plans    []bfv.MatVecPlan    // per linear layer, derived from the model metadata
	circuits []*boolcirc.Circuit // per ReLU layer, from the process-wide table
	pinned   []int               // see pinnedInputs

	otSend *ot.ExtSender   // set on the garbler
	otRecv *ot.ExtReceiver // set on the evaluator
}

// newParty checks the session parameters against the artifact's and builds
// the shared state.
func newParty(conn transport.MsgConn, cfg Config, d *derived, entropy io.Reader) (party, error) {
	if cfg.HEParams.T != d.params.T || cfg.HEParams.N != d.params.N {
		return party{}, fmt.Errorf("delphi: session HE params (N=%d, T=%d) != artifact params (N=%d, T=%d)",
			cfg.HEParams.N, cfg.HEParams.T, d.params.N, d.params.T)
	}
	f := field.New(d.meta.P)
	return party{conn: conn, cfg: cfg, meta: d.meta, f: f, entropy: entropy, sharing: ss.New(f, entropy), plans: d.plans, circuits: d.circuits,
		pinned: pinnedInputs(f.Bits(), cfg.Variant == ClientGarbler)}, nil
}

// draw fills b from the party's entropy, crypto/rand when none was injected.
func (p *party) draw(b []byte) error {
	src := p.entropy
	if src == nil {
		src = rand.Reader
	}
	_, err := io.ReadFull(src, b)
	return err
}

// setupOT establishes the party's OT-extension role for the session. The
// garbler is always the OT sender and the evaluator the receiver, whichever
// endpoint that is under the variant, so exactly one of otSend/otRecv is set
// afterwards. A nil res runs the base OTs (a full handshake); otherwise the
// extension streams expand locally from res under the per-session nonce
// both parties agreed on in their application-level handshake, and nothing
// crosses the wire. res must be this party's OTResume export from an
// earlier session against the same peer; a state for the other role fails
// as a nil state.
func (p *party) setupOT(garbler bool, res *OTResume, nonce []byte) (err error) {
	switch {
	case garbler && res == nil:
		p.otSend, err = ot.NewExtSender(p.conn, p.entropy)
	case garbler:
		p.otSend, err = ot.ResumeSender(p.conn, res.Sender, nonce)
	case res == nil:
		p.otRecv, err = ot.NewExtReceiver(p.conn, p.entropy)
	default:
		p.otRecv, err = ot.ResumeReceiver(p.conn, res.Receiver, nonce)
	}
	if err != nil {
		return fmt.Errorf("delphi: OT setup: %w", err)
	}
	return nil
}

// OTResume exports the party's resumable base-OT material after a
// successful setup (nil before). Cache it — the client beside the
// server's resumption ticket, the server under that ticket — and pass it
// to SetupResumed on the next session.
func (p *party) OTResume() *OTResume {
	switch {
	case p.otSend != nil:
		return &OTResume{Sender: p.otSend.State()}
	case p.otRecv != nil:
		return &OTResume{Receiver: p.otRecv.State()}
	}
	return nil
}

// gcPre is the garbled-circuit half of one buffered pre-compute. The
// evaluator keeps stored. A server garbler keeps encs, for the a labels it
// sends direct: a unit's a-input false labels and its Δ, nothing else. Under
// Client-Garbler each party keeps instead its half of the a-label OTs, one
// batch per ReLU layer, made offline and answered online.
type gcPre struct {
	encs    [][]garble.Encoding // per ReLU layer, per unit: a inputs only
	stored  []storedLayer       // per ReLU layer
	sendOTs []*ot.SenderPads    // per ReLU layer, bound, on a client garbler
	recvOTs []*ot.ReceiverPads  // per ReLU layer, opened, on its evaluator
}

// storedLayer is what the evaluator holds per ReLU layer between phases —
// the storage burden the paper's Figure 3 quantifies (18.2 KB/ReLU).
type storedLayer struct {
	seed   [garble.LabelSize]byte // the pinned inputs' active labels expand from it
	tables [][]garble.Label       // per unit
	decode []byte                 // decode bits, width per unit, packed
	// known holds the b and r labels, 2*width per unit, that a server
	// garbler transfers by offline OT (receiveGC); a client garbler pins b
	// and r to the seed instead, and known stays nil.
	known [][]garble.Label
	bytes uint64
}

// storeBytes totals the garbled-circuit state one pre-compute holds until
// online: stored circuits and labels, precomputed OT state, and a server
// garbler's encodings (the a inputs' false labels and the offset, a unit).
func (g *gcPre) storeBytes() uint64 {
	var n uint64
	for _, b := range g.sendOTs {
		n += b.SizeBytes()
	}
	for _, b := range g.recvOTs {
		n += b.SizeBytes()
	}
	for _, l := range g.stored {
		n += l.bytes
	}
	for _, layer := range g.encs {
		for _, e := range layer {
			n += uint64(len(e.Inputs)+1) * garble.LabelSize
		}
	}
	return n
}

// gcLayerBytes is the wire size of one garbled layer of units: the public
// seed, every unit's tables, and the units' decode bits packed into one
// block.
func gcLayerBytes(circ *boolcirc.Circuit, units int) int {
	return garble.LabelSize + units*garble.TableBytes(circ) + (units*len(circ.Outputs)+7)/8
}

// pinnedInputs lists the circuit inputs whose values the garbler knows when
// it garbles: const-one, and b and r when seeded includes them (the client
// garbler). Their active labels expand from each layer's public seed, so none
// of them crosses the wire. A server garbler pins b and r too, to the zero
// labels of their OTs (garbleAndShip), so they need no seed.
func pinnedInputs(width int, seeded bool) []int {
	pinned := make([]int, 1, 1+2*width)
	pinned[0] = boolcirc.ConstOne
	for w := 1 + width; seeded && w < 1+3*width; w++ {
		pinned = append(pinned, w)
	}
	return pinned
}

// garbleAndShip is the garbler's offline role: garble every ReLU unit and
// send, per layer, one payload of public seed | units × tables | decode-bit
// block inside the layer's label-OT flight: the pads of the evaluator's u
// frame first, the t frame after the payload. Every input the garbler
// knows when it garbles is pinned: const-one to a label expanded from the
// public seed, and b and r, whose values own[layer] lists unit-major on a
// client garbler, likewise. A client garbler's OTs carry the a inputs,
// width a unit: it binds them to the a inputs' false labels and returns the
// batches for their online answer. A server garbler (nil own) does not
// know b and r, and its OTs carry them, 2·width a unit: it pins each to
// its zero pad, and the client opens its labels from t alone. Either way
// t's offsets are the units' Δs. Each layer's Δ and input labels are
// AES-CTR output under a fresh secret seed, and the seeded labels AES-CTR
// output under a fresh public seed; both come from the party's entropy,
// every layer's secret seed first. The OT legs' time is added to *otTime.
// It returns every unit's encoding.
func (p *party) garbleAndShip(own [][]uint64, otTime *time.Duration) ([][]garble.Encoding, []*ot.SenderPads, error) {
	width := p.f.Bits()
	known, np := pinnedInputs(width, true), len(p.pinned)
	n := len(known)
	L := len(p.circuits)
	seeds := make([]byte, 2*L*garble.LabelSize) // L secret, then L public
	if err := p.draw(seeds); err != nil {
		return nil, nil, fmt.Errorf("delphi: GC seeds: %w", err)
	}
	encs := make([][]garble.Encoding, L)
	var bound []*ot.SenderPads
	for layer, circ := range p.circuits {
		units := p.meta.Dims[layer].Out
		bases := make([]uint64, units)
		for u := range bases {
			bases[u] = gateBase(layer, u)
		}
		secret := [garble.LabelSize]byte(seeds[layer*garble.LabelSize:])
		public := [garble.LabelSize]byte(seeds[(L+layer)*garble.LabelSize:])
		per := 2 * width // a server garbler's b and r
		if own != nil {
			per = width // a client garbler's a
		}
		var pads *ot.SenderPads
		var err error
		if err = timed(otTime, func() error { pads, err = p.otSend.ReceivePads(units * per); return err }); err != nil {
			return nil, nil, fmt.Errorf("delphi: label OT layer %d: %w", layer, err)
		}
		// Unit u's pinned inputs are known[k] at u*n + k: the np seeded
		// ones first, then a server garbler's b and r at their zero pads.
		fix := garble.Fixed{Wires: known, Values: make([]bool, units*n), Active: make([]byte, units*n*garble.LabelSize)}
		seeded := make([]byte, units*np*garble.LabelSize)
		garble.ExpandSeed(seeded, public)
		var ownBits []bool
		if own != nil {
			ownBits = valueBits(own[layer], width)
		}
		for u := 0; u < units; u++ {
			fix.Values[u*n] = true // the wire that carries 1
			unit := fix.Active[u*n*garble.LabelSize : (u+1)*n*garble.LabelSize]
			copy(unit, seeded[u*np*garble.LabelSize:(u+1)*np*garble.LabelSize])
			if own != nil {
				copy(fix.Values[u*n+1:(u+1)*n], ownBits[u*2*width:])
				continue
			}
			for k, l := range pads.Zero()[u*2*width : (u+1)*2*width] {
				copy(unit[(np+k)*garble.LabelSize:], l[:])
			}
		}

		payload := make([]byte, 0, gcLayerBytes(circ, units))
		payload = append(payload, public[:]...)
		decode := make([]bool, 0, units*len(circ.Outputs))
		encs[layer] = make([]garble.Encoding, units)
		deltas := make([]garble.Label, units)
		var x0 []garble.Label // a client garbler's a-input false labels
		if own != nil {
			x0 = make([]garble.Label, 0, units*width)
		}
		// All units of the layer garble as one batch.
		for u, g := range garble.GarbleBatchFixed(circ, garble.NewPRG(secret), bases, fix) {
			encs[layer][u], deltas[u] = g.Encoding, g.Encoding.R
			if own != nil {
				x0 = append(x0, g.Encoding.Inputs[1:1+width]...)
			}
			payload = appendLabels(payload, g.Tables)
			for _, d := range g.DecodeBits {
				decode = append(decode, d == 1)
			}
		}
		payload = append(payload, encodeBits(decode)...)
		if err := p.conn.Send(payload); err != nil {
			return nil, nil, fmt.Errorf("delphi: send GC layer %d: %w", layer, err)
		}
		if err := timed(otTime, func() error { return p.otSend.SendOffsets(pads, x0, deltas, per) }); err != nil {
			return nil, nil, fmt.Errorf("delphi: label OT layer %d: %w", layer, err)
		}
		if own != nil {
			bound = append(bound, pads)
		}
	}
	return encs, bound, nil
}

// timed runs f and adds its duration to *d.
func timed(d *time.Duration, f func() error) error {
	start := time.Now()
	err := f()
	*d += time.Since(start)
	return err
}

// aInputs keeps of each unit's encoding what a server garbler needs online:
// the a inputs' false labels, as Inputs[0:width], and Δ. One slab a layer
// holds the labels, so the full encodings can go.
func aInputs(encs [][]garble.Encoding, width int) [][]garble.Encoding {
	out := make([][]garble.Encoding, len(encs))
	for layer, units := range encs {
		slab := make([]garble.Label, len(units)*width)
		out[layer] = make([]garble.Encoding, len(units))
		for u, enc := range units {
			a := slab[u*width : (u+1)*width : (u+1)*width]
			copy(a, enc.Inputs[1:1+width])
			out[layer][u] = garble.Encoding{Inputs: a, R: enc.R}
		}
	}
	return out
}

// sendActive is the garbler's direct-label leg: the active labels of every
// unit's a input, for the share values the garbler itself holds. encs are
// aInputs' encodings.
func (p *party) sendActive(encs []garble.Encoding, vals []uint64) error {
	width := p.f.Bits()
	payload := make([]byte, 0, len(vals)*width*garble.LabelSize)
	for u, enc := range encs {
		for k := 0; k < width; k++ {
			lb := enc.EncodeInput(k, vals[u]>>uint(k)&1 == 1)
			payload = append(payload, lb[:]...)
		}
	}
	return p.conn.Send(payload)
}

// receiveGC is the evaluator's offline role: receive and store every
// layer's garbled units, each inside the layer's label-OT flight: it sends
// the u frame of the layer's OTs before the layer and opens them from the t
// frame that follows it. From a server garbler the OTs obtain the labels of
// the b and r values own[layer] lists, unit-major; from a client garbler
// they are random OTs on bits from the party's entropy, one ⌈m/8⌉-byte
// draw a layer, returned for their online answer. The OT legs' time is
// added to *otTime.
func (p *party) receiveGC(own [][]uint64, otTime *time.Duration) ([]storedLayer, []*ot.ReceiverPads, error) {
	width, sg := p.f.Bits(), p.cfg.Variant == ServerGarbler
	stored := make([]storedLayer, len(p.circuits))
	var opened []*ot.ReceiverPads
	for layer, circ := range p.circuits {
		units := p.meta.Dims[layer].Out
		var pads *ot.ReceiverPads
		if err := timed(otTime, func() error {
			choices, err := p.otChoices(own, layer)
			if err == nil {
				pads, err = p.otRecv.SendChoices(choices)
			}
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("delphi: label OT layer %d: %w", layer, err)
		}
		payload, err := p.conn.Recv()
		if err != nil {
			return nil, nil, fmt.Errorf("delphi: recv GC layer %d: %w", layer, err)
		}
		st := &stored[layer]
		if *st, err = parseGCLayer(circ, units, payload); err != nil {
			return nil, nil, fmt.Errorf("delphi: GC layer %d: %w", layer, err)
		}
		var labels []garble.Label
		if err := timed(otTime, func() error { labels, err = p.otRecv.ReceiveOffsets(pads); return err }); err != nil {
			return nil, nil, fmt.Errorf("delphi: label OT layer %d: %w", layer, err)
		}
		if !sg {
			opened = append(opened, pads)
			continue
		}
		st.known = make([][]garble.Label, len(st.tables))
		for u := range st.known {
			st.known[u] = labels[u*2*width : (u+1)*2*width]
		}
		st.bytes += uint64(len(labels) * garble.LabelSize)
	}
	return stored, opened, nil
}

// otChoices returns the evaluator's choice bits for a layer's label OTs:
// the client's b and r bits under Server-Garbler, and under Client-Garbler
// random bits from the party's entropy, one ⌈m/8⌉-byte draw.
func (p *party) otChoices(own [][]uint64, layer int) ([]bool, error) {
	width := p.f.Bits()
	if p.cfg.Variant == ServerGarbler {
		return valueBits(own[layer], width), nil
	}
	m := p.meta.Dims[layer].Out * width
	raw := make([]byte, (m+7)/8)
	if err := p.draw(raw); err != nil {
		return nil, fmt.Errorf("entropy: %w", err)
	}
	raw[len(raw)-1] &= 0xFF >> (7 - (m-1)%8) // no choice bits past m
	return decodeBits(raw, m)
}

// parseGCLayer is the one decoder of garbleAndShip's payload. Nothing is
// allocated before the payload is the one encoding the public layer shape
// admits: its exact length, and zero padding after the decode bits.
func parseGCLayer(circ *boolcirc.Circuit, units int, payload []byte) (storedLayer, error) {
	if want := gcLayerBytes(circ, units); len(payload) != want {
		return storedLayer{}, fmt.Errorf("payload %d bytes, want %d", len(payload), want)
	}
	end := garble.LabelSize + units*garble.TableBytes(circ)
	if err := checkBits(payload[end:], units*len(circ.Outputs)); err != nil {
		return storedLayer{}, err
	}
	st := storedLayer{
		tables: make([][]garble.Label, units),
		decode: append([]byte(nil), payload[end:]...),
		bytes:  uint64(len(payload)),
	}
	copy(st.seed[:], payload)
	tables, per := labelsOf(payload[garble.LabelSize:end]), 2*circ.NumAND()
	for u := range st.tables {
		st.tables[u] = tables[u*per : (u+1)*per : (u+1)*per]
	}
	return st, nil
}

// evaluateLayer is the evaluator's online role: evaluate the stored units
// of one ReLU layer on the a labels just obtained, as one batch, returning
// the decoded output bits (the masked next-layer input), width per unit.
// The pinned inputs' active labels are expanded from the layer's seed and
// the decode bits unpacked here, so neither is held between phases.
func (p *party) evaluateLayer(st storedLayer, layer int, aLabels []garble.Label) ([]bool, error) {
	width := p.f.Bits()
	circ := p.circuits[layer]
	n, np, nOut, units := circ.NumInputs, len(p.pinned), len(circ.Outputs), len(st.tables)
	// One scratch buffer: the pinned labels, then the decode bits one a byte.
	scratch := make([]byte, units*np*garble.LabelSize+units*nOut)
	pinned, decode := scratch[:units*np*garble.LabelSize], scratch[units*np*garble.LabelSize:]
	garble.ExpandSeed(pinned, st.seed)
	for i := range decode {
		decode[i] = st.decode[i/8] >> (i % 8) & 1
	}
	inputs := make([]garble.Label, units*n)
	bases := make([]uint64, units)
	for u := range bases {
		in := inputs[u*n : (u+1)*n]
		if st.known != nil { // b and r, fetched by OT from a server garbler
			copy(in[1+width:], st.known[u])
		}
		for k, w := range p.pinned {
			in[w] = garble.Label(pinned[(u*np+k)*garble.LabelSize:])
		}
		copy(in[1:1+width], aLabels[u*width:(u+1)*width])
		bases[u] = gateBase(layer, u)
	}
	bits, err := garble.EvalBatch(circ, st.tables, decode, inputs, bases)
	if err != nil {
		return nil, fmt.Errorf("delphi: eval layer %d: %w", layer, err)
	}
	return bits, nil
}

// offlineGC is the garbled-circuit leg of a pre-compute on either endpoint,
// timed into rep: the circuits (garbleAndShip, receiveGC), each layer's
// label OTs woven in, Server-Garbler's b and r or Client-Garbler's a,
// which are random OTs RunOnline answers with one derandomization each
// (SendPrecomputed, ReceivePrecomputed). own lists the client's b and r
// values per layer (nil on the server).
func (p *party) offlineGC(pre *gcPre, garbler bool, own [][]uint64, rep *OfflineReport) error {
	start := time.Now()
	var err error
	if garbler {
		var encs [][]garble.Encoding
		encs, pre.sendOTs, err = p.garbleAndShip(own, &rep.OTDuration)
		if err == nil && p.cfg.Variant == ServerGarbler { // a client garbler keeps its bound OTs instead
			pre.encs = aInputs(encs, p.f.Bits())
		}
	} else {
		pre.stored, pre.recvOTs, err = p.receiveGC(own, &rep.OTDuration)
	}
	rep.GCDuration = time.Since(start) - rep.OTDuration
	rep.GCStoreBytes = pre.storeBytes()
	return err
}
