package delphi

import (
	"fmt"
	"sync"

	"privinf/internal/bfv"
	"privinf/internal/boolcirc"
	"privinf/internal/nn"
)

// derived is the public half of every model artifact: what any party
// computes from the HE parameters and ModelMeta alone — a matvec packing
// plan per linear layer and a ReLU circuit per activation layer. Because it
// is a function of public inputs, no codec stores it: each artifact derives
// it again on load, so a change to the circuit or the packing needs no
// durable format bump.
type derived struct {
	params   bfv.Params
	meta     ModelMeta
	plans    []bfv.MatVecPlan
	circuits []*boolcirc.Circuit
}

// derive validates meta against params and lays out the plans and the
// circuits; layers with equal shift share one circuit. meta.Validate is the
// one check in front of BuildReLU, whichever party or file supplied meta.
func derive(params bfv.Params, meta ModelMeta) (derived, error) {
	if err := meta.Validate(); err != nil {
		return derived{}, err
	}
	if params.T != meta.P {
		return derived{}, fmt.Errorf("delphi: HE plaintext modulus %d != model field %d", params.T, meta.P)
	}
	d := derived{params: params, meta: meta, plans: make([]bfv.MatVecPlan, len(meta.Dims))}
	for i, dim := range meta.Dims {
		d.plans[i] = bfv.PlanMatVec(params, dim.Out, dim.In)
	}
	d.circuits = make([]*boolcirc.Circuit, meta.NumReLULayers())
	for i, shift := range meta.Shifts {
		if d.circuits[i] = reluCircuit(boolcirc.ReLUSpec{P: meta.P, Frac: shift}); 2*d.circuits[i].NumAND() >= maxTweaks {
			return derived{}, fmt.Errorf("delphi: ReLU circuit has %d ANDs, want fewer than 2^21", d.circuits[i].NumAND())
		}
	}
	return d, nil
}

// reluCircuits holds one built circuit per ReLU spec for the whole process:
// a circuit is an immutable function of (p, shift), so every artifact over
// the same field shares it, and a reload after eviction builds none. Like
// weightDigests it is cleared wholesale past maxCachedCircuits specs, which
// bounds what a stream of peers' welcomes can make a process hold.
var (
	reluMu       sync.Mutex
	reluCircuits = map[boolcirc.ReLUSpec]*boolcirc.Circuit{}
)

const maxCachedCircuits = 64

func reluCircuit(spec boolcirc.ReLUSpec) *boolcirc.Circuit {
	reluMu.Lock()
	defer reluMu.Unlock()
	c, ok := reluCircuits[spec]
	if !ok {
		if len(reluCircuits) >= maxCachedCircuits {
			clear(reluCircuits)
		}
		c = boolcirc.BuildReLU(spec)
		reluCircuits[spec] = c
	}
	return c
}

// sizeBytes is the derived state's resident footprint: the built circuits,
// and one cache line per plan (a plan is a few words).
func (d *derived) sizeBytes() uint64 {
	const planBytes = 64
	n := uint64(len(d.plans)) * planBytes
	for _, c := range d.circuits {
		n += c.SizeBytes()
	}
	return n
}

// Meta returns the public model metadata the artifact was built from.
func (d *derived) Meta() ModelMeta { return d.meta }

// Params returns the HE parameter set the artifact was laid out under.
func (d *derived) Params() bfv.Params { return d.params }

// SharedModel is the immutable, key-independent model artifact a server
// needs for any number of sessions of one model under one HE parameter set:
// the matvec packing plans, the weight matrices pre-encoded into NTT-domain
// plaintexts, and the built ReLU boolean circuits. None of it depends on a
// client's keys — the weight encoding is plaintext-side and the circuits
// are public — so it is built once (NewSharedModel) and handed to every
// session (NewServerShared).
//
// Before this artifact existed, Server.Setup re-encoded every weight matrix
// and rebuilt every circuit per connected client: per-session setup paid
// O(layers × N·logN) NTTs and each session held its own copy of the encoded
// model. With it, per-session setup is O(1) model work (key exchange and
// base OTs only) and the encoded weights exist once per process.
//
// A SharedModel is strictly read-only after construction and therefore safe
// for unbounded concurrent use.
type SharedModel struct {
	derived
	model   *nn.Lowered
	weights [][]bfv.Plaintext // [layer][outCt*numInputCts+inCt], NTT domain
	size    uint64            // resident footprint, computed once at build
}

// NewSharedModel validates the model against the HE parameters, refuses
// weights the noise budget cannot carry (checkNoise), and builds the
// artifact: plans, encoded weights (the dominant cost, parallelized inside
// bfv.EncodeMatrix), and ReLU circuits.
func NewSharedModel(params bfv.Params, model *nn.Lowered) (*SharedModel, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	d, err := derive(params, MetaOf(model))
	if err != nil {
		return nil, err
	}
	if err := d.checkNoise(model); err != nil {
		return nil, err
	}
	sm := &SharedModel{derived: d, model: model}
	sm.weights = make([][]bfv.Plaintext, len(model.Linear))
	encoder := bfv.NewEncoder(params)
	for i, lin := range model.Linear {
		pts := sm.plans[i].EncodeMatrix(encoder, lin.W)
		flat := make([]bfv.Plaintext, 0, len(pts)*len(pts[0]))
		for _, row := range pts {
			flat = append(flat, row...)
		}
		sm.weights[i] = flat
	}
	sm.computeSize()
	return sm, nil
}

// checkNoise refuses a model whose weights could make a response decrypt
// wrong: each layer's rows, by their centered L1 norms, must pass the
// plan's bfv.MatVecPlan.CheckNoise.
func (d *derived) checkNoise(model *nn.Lowered) error {
	for l, lin := range model.Linear {
		norms := make([]uint64, len(lin.W))
		for r, row := range lin.W {
			for _, w := range row {
				v := model.F.ToInt64(w)
				norms[r] += uint64(max(v, -v))
			}
		}
		if err := d.plans[l].CheckNoise(norms); err != nil {
			return fmt.Errorf("delphi: layer %d: %w", l, err)
		}
	}
	return nil
}

// computeSize fills sm.size from the built artifact: the NTT-domain weight
// plaintexts, which dominate, plus the derived state. Shared with the disk
// codec (UnmarshalSharedModel) so a reloaded artifact reports the same
// footprint as a freshly built one.
func (sm *SharedModel) computeSize() {
	sm.size = sm.sizeBytes()
	for _, layer := range sm.weights {
		for _, pt := range layer {
			sm.size += pt.SizeBytes()
		}
	}
}

// SizeBytes returns the artifact's resident memory footprint: encoded
// weight plaintexts plus built ReLU circuits plus packing plans. A model
// registry (internal/serve) sums these against its byte budget to decide
// LRU eviction, the same discipline the pre-compute scheduler applies to
// client storage.
func (sm *SharedModel) SizeBytes() uint64 { return sm.size }

// Model returns the lowered model the artifact was built from. The model is
// server-side state; it never crosses the wire.
func (sm *SharedModel) Model() *nn.Lowered { return sm.model }
