// Package delphi implements the end-to-end hybrid private-inference
// protocol the paper characterizes (§2.2, Figure 2). Homomorphic encryption
// generates additive shares of every linear layer in an input-independent
// offline phase; the online phase evaluates linear layers on secret shares
// and ReLU layers with garbled circuits.
//
// The garbled-circuit layer has exactly two roles, each written once
// (roles.go) on the state Client and Server share:
//
//   - The garbler garbles every ReLU unit offline and ships, per layer, a
//     public seed, the tables and the packed decode bits (garbleAndShip),
//     garbling into the one payload it sends, so it never holds a layer's
//     tables anywhere else.
//     It is the OT sender, and every unit's free-XOR offset is the OT
//     extension's s, so each layer's label OTs are a u frame from the
//     evaluator and nothing else: the garbler takes the OT rows before it
//     garbles and pins the OT-carried inputs to them. Each pre-compute
//     garbles under a hash key of its own (hashKey), since s outlives it.
//     A circuit input whose value it knows when it garbles (const-one, and
//     b and r on a client garbler) it pins to an active label expanded
//     from the seed, so that label never travels. A server garbler's OTs
//     carry b and r at its raw rows, which the client already holds as
//     their labels; its a labels go direct online. A client garbler's OTs
//     carry the a labels at its rows masked by one-time pads, and it
//     answers them online. Either way the a side's labels, the server
//     garbler's false labels or the client garbler's pads, are the front
//     of the layer's secret AES-CTR stream: the garbler keeps that 16-byte
//     seed of each layer and expands them again online.
//   - The evaluator receives and stores the circuits (receiveGC, which
//     also runs each layer's OTs before it, and parseGCLayer, the one
//     payload parser) — the 18.2 KB/ReLU storage burden of Figure 3 — is
//     the OT receiver, on random choices under Client-Garbler,
//     derandomized online, and evaluates online (evaluateLayer). What it
//     holds between the phases is each layer's frame as received, once
//     parsed, and under Server-Garbler the b and r labels its OTs gave; it
//     evaluates from the frame, reading the tables where they lie, copying
//     none of them, and reading the seeded labels off the frame's seed a
//     unit at a time. A Server-Garbler client likewise evaluates on the a
//     labels where the server's online frame holds them.
//
// A ReLU unit takes a, the server's share of the layer output (known only
// online), and b and r, the client's share c_i and next mask r_{i+1} (known
// offline). The two protocol variants are the same protocol with the roles
// swapped (§5.1, Figure 6), which decides who stores and how each input's
// labels travel:
//
//	                       ServerGarbler (DELPHI)     ClientGarbler (§5.1)
//	garbler, OT sender     server                     client
//	evaluator, GC storage  client                     server
//	const-one label        expanded from the layer seed, either variant
//	label OTs (offline)    b, r: u, then the layer    a: u, then the layer
//	b, r labels            the OTs' rows              expanded from the layer seed
//	a labels (online)      direct, server → client    d bits server → client,
//	                                                  z client → server
//	ReLU output bits       client decodes, returns    server decodes, keeps
//
// The offline garbled-circuit leg of both endpoints (offlineGC) runs the
// same role calls under either variant, and RunOnline on each is one
// switch on the variant whose arms pick the role calls of the column
// above; the wire layout, the evaluator's allocation behaviour and the
// label ordering live in the role code and so change in one place for
// both variants.
//
// The implementation is functional end-to-end: a Client/Server pair
// connected by a transport.Conn produces inference outputs bit-exact with
// nn.Lowered.Forward, with the server never seeing x and the client never
// seeing the weights.
package delphi

import (
	"fmt"
	"math/bits"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/nn"
)

// Variant selects which party garbles the ReLU circuits.
type Variant int

const (
	// ServerGarbler is the baseline protocol.
	ServerGarbler Variant = iota
	// ClientGarbler is the storage-optimized protocol.
	ClientGarbler
)

func (v Variant) String() string {
	if v == ClientGarbler {
		return "Client-Garbler"
	}
	return "Server-Garbler"
}

// LayerDim is the public shape of one linear layer.
type LayerDim struct {
	In, Out int
}

// ModelMeta is the public model description both parties share: dimensions,
// field, and fixed-point truncation amounts. Weights stay on the server.
type ModelMeta struct {
	P      uint64
	Frac   uint
	Dims   []LayerDim
	Shifts []uint
}

// MetaOf extracts the public metadata from a lowered model.
func MetaOf(m *nn.Lowered) ModelMeta {
	dims := make([]LayerDim, len(m.Linear))
	for i, l := range m.Linear {
		dims[i] = LayerDim{In: l.In(), Out: l.Out()}
	}
	return ModelMeta{
		P:      m.F.P(),
		Frac:   m.Frac,
		Dims:   dims,
		Shifts: append([]uint(nil), m.Shifts...),
	}
}

// Validate checks structural consistency, that every shift fits the
// field's width (a ReLU circuit is built from the metadata, which may come
// from a peer's welcome or a file), and that the ReLU units fit gateBase.
// It allocates nothing before it refuses.
func (m ModelMeta) Validate() error {
	if len(m.Dims) == 0 || len(m.Dims) > maxReLULayers {
		return fmt.Errorf("delphi: model has %d linear layers, want 1 to 2^19", len(m.Dims))
	}
	if len(m.Shifts) != len(m.Dims)-1 {
		return fmt.Errorf("delphi: %d shifts for %d linear layers", len(m.Shifts), len(m.Dims))
	}
	for i, d := range m.Dims {
		if d.In < 1 || d.Out < 1 {
			return fmt.Errorf("delphi: layer %d shape %dx%d is not positive", i, d.Out, d.In)
		}
		if i > 0 && d.In != m.Dims[i-1].Out {
			return fmt.Errorf("delphi: layer %d in=%d != layer %d out=%d", i, d.In, i-1, m.Dims[i-1].Out)
		}
		if i < len(m.Dims)-1 && d.Out >= maxUnits {
			return fmt.Errorf("delphi: ReLU layer %d has %d units, want fewer than 2^22", i, d.Out)
		}
	}
	for i, s := range m.Shifts {
		if width := uint(bits.Len64(m.P - 1)); s >= width {
			return fmt.Errorf("delphi: layer %d shift %d is not below the %d-bit field width", i, s, width)
		}
	}
	return nil
}

// NumReLULayers returns the number of garbled activation layers.
func (m ModelMeta) NumReLULayers() int { return len(m.Dims) - 1 }

// TotalReLUs returns the total garbled circuit instances per inference.
func (m ModelMeta) TotalReLUs() int {
	n := 0
	for i := 0; i < len(m.Dims)-1; i++ {
		n += m.Dims[i].Out
	}
	return n
}

// Config fixes the cryptographic parameters of a session.
type Config struct {
	Variant Variant
	// HEParams must use the model's field as plaintext modulus.
	HEParams bfv.Params
	// LPHEWorkers bounds concurrent offline HE layer jobs. 0 or 1 runs
	// layers sequentially (the baseline); len(Dims) gives full
	// layer-parallel HE (§5.2).
	LPHEWorkers int
}

// OfflineReport summarizes one offline (pre-compute) phase.
type OfflineReport struct {
	Duration   time.Duration
	HEDuration time.Duration
	GCDuration time.Duration // garbling or receiving+storing, per role
	OTDuration time.Duration // the label OTs run offline, either variant
	BytesSent  uint64
	BytesRecv  uint64
	// GCStoreBytes is the garbled-circuit state this party holds from the
	// pre-compute until its online phase: on the evaluator the stored
	// tables, decode bits and labels, and under Client-Garbler its 16-B
	// row and choice bit per label OT; on either garbler the 16-B secret
	// seed per ReLU layer its a side's labels expand from (the offset is
	// the OT extension's s, held with the base-OT state).
	GCStoreBytes uint64
}

// OnlineReport summarizes one online inference.
type OnlineReport struct {
	Duration  time.Duration
	BytesSent uint64
	BytesRecv uint64
}
