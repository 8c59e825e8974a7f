package delphi

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
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
	// nonce is the session's OT nonce (nil after base OTs), and
	// precomputes counts the session's pre-computes: the two name each
	// pre-compute's garbling hash key (hashKey).
	nonce       []byte
	precomputes uint64
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
	p.nonce = nonce
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
// to the next session's Client.SetupKeys or Server.SetupResumed.
func (p *party) OTResume() *OTResume {
	switch {
	case p.otSend != nil:
		return &OTResume{Sender: p.otSend.State()}
	case p.otRecv != nil:
		return &OTResume{Receiver: p.otRecv.State()}
	}
	return nil
}

// gcPre is the garbled-circuit half of one buffered pre-compute, garbled
// under hash, a key of its own (hashKey) that is public and that each
// party derives, so no state it stores. The evaluator keeps stored. The
// garbler keeps each layer's secret seed, from which the labels of the
// layer's a inputs expand again online: a server garbler's a-input false
// labels, sent direct, and a client garbler's pads y, with which it
// answers the bound a-label OT batches it keeps too. Under Client-Garbler
// the evaluator keeps its half of those OTs, one batch per ReLU layer.
type gcPre struct {
	hash    garble.Hasher
	seeds   [][garble.LabelSize]byte // per ReLU layer, on the garbler
	stored  []storedLayer            // per ReLU layer
	sendOTs []*ot.SenderPads         // per ReLU layer, bound, on a client garbler
	recvOTs []*ot.ReceiverPads       // per ReLU layer, on its evaluator
}

// storedLayer is what the evaluator holds per ReLU layer between phases —
// the storage burden the paper's Figure 3 quantifies (18.2 KB/ReLU).
type storedLayer struct {
	// frame is the layer as it was received, public seed ‖ tables ‖ decode
	// block, once parseGCLayer accepted it: the store is the frame, not a
	// copy, and evaluateLayer evaluates from it.
	frame []byte
	// known holds the b and r labels, 2*width per unit, unit-major, that a
	// server garbler transfers by offline OT (receiveGC); a client garbler
	// pins b and r to the seed instead, and known stays nil.
	known []garble.Label
}

// storeBytes totals the garbled-circuit state one pre-compute holds until
// online: stored circuits and labels, precomputed OT state and seeds.
func (g *gcPre) storeBytes() uint64 {
	n := uint64(len(g.seeds)) * garble.LabelSize
	for _, b := range g.sendOTs {
		n += b.SizeBytes()
	}
	for _, b := range g.recvOTs {
		n += b.SizeBytes()
	}
	for _, l := range g.stored {
		n += uint64(len(l.frame) + len(l.known)*garble.LabelSize)
	}
	return n
}

// hashKey is the garbling hash of a session's index-th pre-compute: AES
// under SHA-256(tag ‖ len(nonce) ‖ nonce ‖ index) truncated to a key. The
// garbler's offset is s, which lives as long as the base-OT state, so each
// pre-compute hashes under a permutation of its own, and the tweaks
// (gateBase) need only be unique within one.
func hashKey(nonce []byte, index uint64) garble.Hasher {
	b := append(make([]byte, 0, 64+len(nonce)), "privinf/gc-hash-key/v1"...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(nonce)))
	b = binary.LittleEndian.AppendUint64(append(b, nonce...), index)
	sum := sha256.Sum256(b)
	return garble.KeyedHasher([garble.LabelSize]byte(sum[:]))
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
// of them crosses the wire. The inputs the label OTs carry are pinned too,
// to the OTs' zero labels (garbleAndShip), so they need no seed.
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
// block after the layer's label-OT flight, the evaluator's u frame. The
// payload is allocated once, and the garbling writes the tables and the
// decode bits straight into it. Every unit's offset is the OT extension's
// s and its hash pre's (hashKey), and every input the garbler knows when
// it garbles is pinned: const-one to a label read off the layer's public
// stream, and b and r, whose values own[layer] lists unit-major on a client
// garbler, likewise. The OTs' inputs are pinned to their zero labels. A
// server garbler's (nil own) carry b and r, 2·width a unit, at its raw
// rows, which the client already holds as its labels; the a inputs are
// the only ones its garbling draws labels for. A client garbler's carry a,
// width a unit, at q ⊕ y; it keeps the bound batches, and its garbling
// draws nothing. Either way the a side's labels, the false labels or the
// pads y, are the first units·width·16 B of the layer's secret AES-CTR
// stream, so the garbler keeps only each layer's secret seed and expands
// them again online. Both seeds of a layer are fresh from the party's
// entropy, every layer's secret seed first. The OT legs' time is added to
// *otTime.
func (p *party) garbleAndShip(pre *gcPre, own [][]uint64, otTime *time.Duration) error {
	width, sg := p.f.Bits(), own == nil
	np, L := len(p.pinned), len(p.circuits)
	seeds := make([]byte, 2*L*garble.LabelSize) // L secret, then L public
	if err := p.draw(seeds); err != nil {
		return fmt.Errorf("delphi: GC seeds: %w", err)
	}
	delta := p.otSend.Delta()
	for layer, circ := range p.circuits {
		units := p.meta.Dims[layer].Out
		bases := make([]uint64, units)
		for u := range bases {
			bases[u] = gateBase(layer, u)
		}
		secret := [garble.LabelSize]byte(seeds[layer*garble.LabelSize:])
		public := [garble.LabelSize]byte(seeds[(L+layer)*garble.LabelSize:])
		pre.seeds = append(pre.seeds, secret)
		lo, per := 1, width // the OTs carry a client garbler's a, a server garbler's b and r
		if sg {
			lo, per = 1+width, 2*width
		}
		wires := append([]int(nil), p.pinned...)
		for w := lo; w < lo+per; w++ {
			wires = append(wires, w)
		}
		var pads *ot.SenderPads
		var err error
		if err = timed(otTime, func() error { pads, err = p.otSend.ReceivePads(units * per); return err }); err != nil {
			return fmt.Errorf("delphi: label OT layer %d: %w", layer, err)
		}
		prg, zero := garble.NewPRG(secret), pads.Zero()
		if !sg {
			y := make([]byte, units*per*garble.LabelSize)
			prg.Read(y) // never fails
			if zero, err = pads.Bind(y); err != nil {
				return err
			}
			pre.sendOTs = append(pre.sendOTs, pads)
		}
		// Unit u's pinned inputs are wires[k] at u*n + k: the np seeded
		// ones first, read off the public stream, then the OTs' at their
		// zero labels.
		n := len(wires)
		fix := garble.Fixed{Wires: wires, Values: make([]bool, units*n), Active: make([]byte, units*n*garble.LabelSize), R: &delta, Hash: pre.hash}
		seeded := garble.NewPRG(public)
		for u := 0; u < units; u++ {
			fix.Values[u*n] = true // the wire that carries 1
			if !sg {
				copy(fix.Values[u*n+1:u*n+np], valueBits(own[layer][2*u:2*u+2], width))
			}
			unit := fix.Active[u*n*garble.LabelSize : (u+1)*n*garble.LabelSize]
			seeded.Read(unit[:np*garble.LabelSize]) // never fails
			for k, l := range zero[u*per : (u+1)*per] {
				copy(unit[(np+k)*garble.LabelSize:], l[:])
			}
		}

		// All units of the layer garble as one batch, into the payload.
		payload := make([]byte, gcLayerBytes(circ, units))
		copy(payload, public[:])
		end := garble.LabelSize + units*garble.TableBytes(circ)
		garble.GarbleBatchFixed(circ, prg, bases, fix, garble.Layer{Tables: payload[garble.LabelSize:end], Decode: payload[end:]})
		if err := p.conn.Send(payload); err != nil {
			return fmt.Errorf("delphi: send GC layer %d: %w", layer, err)
		}
	}
	return nil
}

// timed runs f and adds its duration to *d.
func timed(d *time.Duration, f func() error) error {
	start := time.Now()
	err := f()
	*d += time.Since(start)
	return err
}

// sendActive is a server garbler's direct-label leg: the active labels of
// every unit's a input, a ⊕ v·s for the share values v the garbler itself
// holds and a the layer's false labels, which it expands again from the
// layer's secret seed: they are the front of the stream its garbling read.
func (p *party) sendActive(seed [garble.LabelSize]byte, vals []uint64) error {
	width, delta := p.f.Bits(), p.otSend.Delta()
	a := make([]byte, len(vals)*width*garble.LabelSize)
	garble.ExpandSeed(a, seed)
	for i := 0; i < len(a)/garble.LabelSize; i++ {
		if vals[i/width]>>uint(i%width)&1 == 1 {
			subtle.XORBytes(a[i*garble.LabelSize:], a[i*garble.LabelSize:], delta[:])
		}
	}
	return p.conn.Send(a)
}

// receiveGC is the evaluator's offline role: receive and store every
// layer's garbled units, each after the layer's label-OT flight: it sends
// the u frame of the layer's OTs before the layer. From a server garbler
// the OTs carry the b and r values own[layer] lists, unit-major, and their
// rows are those inputs' labels; from a client garbler they are random OTs
// on bits from the party's entropy, one ⌈m/8⌉-byte draw a layer, kept for
// their online answer. The OT legs' time is added to *otTime.
func (p *party) receiveGC(pre *gcPre, own [][]uint64, otTime *time.Duration) error {
	sg := p.cfg.Variant == ServerGarbler
	pre.stored = make([]storedLayer, len(p.circuits))
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
			return fmt.Errorf("delphi: label OT layer %d: %w", layer, err)
		}
		payload, err := p.conn.Recv()
		if err != nil {
			return fmt.Errorf("delphi: recv GC layer %d: %w", layer, err)
		}
		if _, err := parseGCLayer(circ, units, payload); err != nil {
			return fmt.Errorf("delphi: GC layer %d: %w", layer, err)
		}
		st := &pre.stored[layer]
		//lint:allow frameretain the checked layer frame is the evaluator's store; no later Recv reuses its memory (docs/invariants.md)
		st.frame = payload
		if !sg {
			pre.recvOTs = append(pre.recvOTs, pads)
			continue
		}
		st.known = pads.Rows()
	}
	return nil
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

// parseGCLayer is the one decoder of garbleAndShip's payload. It accepts
// only the one encoding the public layer shape admits, its exact length
// and zero padding after the decode bits, and returns the units as views
// into the payload, whose first 16 bytes are the public seed: it copies
// and allocates nothing.
func parseGCLayer(circ *boolcirc.Circuit, units int, payload []byte) (garble.Layer, error) {
	if want := gcLayerBytes(circ, units); len(payload) != want {
		return garble.Layer{}, fmt.Errorf("payload %d bytes, want %d", len(payload), want)
	}
	end := garble.LabelSize + units*garble.TableBytes(circ)
	if err := checkBits(payload[end:], units*len(circ.Outputs)); err != nil {
		return garble.Layer{}, err
	}
	return garble.Layer{Tables: payload[garble.LabelSize:end], Decode: payload[end:]}, nil
}

// evaluateLayer is the evaluator's online role: evaluate pre's stored units
// of one ReLU layer on the a labels just obtained, as one batch under pre's
// hash, returning the decoded output bits (the masked next-layer input),
// width per unit. The a labels, width a unit, unit-major, are aLabels (from
// the label OTs) or, when aLabels is nil, the bytes of aFrame (sent
// direct, its length checked). The tables and decode bits are read where
// the stored frame holds them; the pinned inputs' active labels are read
// off its seed's stream a unit at a time as the unit's inputs fill, so
// they are neither held between phases nor staged for the layer.
func (p *party) evaluateLayer(pre *gcPre, layer int, aLabels []garble.Label, aFrame []byte) ([]bool, error) {
	st, circ, units := pre.stored[layer], p.circuits[layer], p.meta.Dims[layer].Out
	l, err := parseGCLayer(circ, units, st.frame)
	if err != nil {
		return nil, fmt.Errorf("delphi: eval layer %d: %w", layer, err)
	}
	width, n, np := p.f.Bits(), circ.NumInputs, len(p.pinned)
	seeded, pinned := garble.NewPRG([garble.LabelSize]byte(st.frame)), make([]byte, np*garble.LabelSize)
	inputs := make([]garble.Label, units*n)
	bases := make([]uint64, units)
	for u := range bases {
		in := inputs[u*n : (u+1)*n]
		if st.known != nil { // b and r, fetched by OT from a server garbler
			copy(in[1+width:], st.known[u*2*width:(u+1)*2*width])
		}
		seeded.Read(pinned) // never fails
		for k, w := range p.pinned {
			in[w] = garble.Label(pinned[k*garble.LabelSize:])
		}
		for k := 0; k < width; k++ {
			if i := u*width + k; aLabels != nil {
				in[1+k] = aLabels[i]
			} else {
				in[1+k] = garble.Label(aFrame[i*garble.LabelSize:])
			}
		}
		bases[u] = gateBase(layer, u)
	}
	bits, err := garble.EvalBatch(pre.hash, circ, l, inputs, bases)
	if err != nil {
		return nil, fmt.Errorf("delphi: eval layer %d: %w", layer, err)
	}
	return bits, nil
}

// offlineGC is the garbled-circuit leg of the session's next pre-compute
// on either endpoint, timed into rep: the circuits (garbleAndShip,
// receiveGC), each layer's label OTs woven in, Server-Garbler's b and r or
// Client-Garbler's a, which are random OTs RunOnline answers with one
// derandomization each (SendPrecomputed, ReceivePrecomputed). own lists the
// client's b and r values per layer (nil on the server).
func (p *party) offlineGC(pre *gcPre, garbler bool, own [][]uint64, rep *OfflineReport) error {
	start := time.Now()
	pre.hash, p.precomputes = hashKey(p.nonce, p.precomputes), p.precomputes+1
	var err error
	if garbler {
		err = p.garbleAndShip(pre, own, &rep.OTDuration)
	} else {
		err = p.receiveGC(pre, own, &rep.OTDuration)
	}
	rep.GCDuration = time.Since(start) - rep.OTDuration
	rep.GCStoreBytes = pre.storeBytes()
	return err
}
