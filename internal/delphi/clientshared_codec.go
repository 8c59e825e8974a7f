package delphi

import (
	"privinf/internal/bfv"
	"privinf/internal/bin"
)

// Binary codec for ClientShared, the client half of artifact persistence:
// a repeat client that persists its preamble reloads plans and built ReLU
// circuits in O(decode) instead of rebuilding them per process. Unlike the
// SharedModel codec this one needs no source model — a ClientShared holds
// no weights, only the public metadata, the shape-derived plans and the
// public circuits — so decode runs from bytes alone. Plans are NOT stored:
// they are deterministic in (params, shape) and cheaper to re-derive than
// to read, so the decoder rebuilds them via bfv.PlanMatVec exactly as
// NewClientShared would. Integrity (checksums, truncation) is the
// enclosing store's job; the codec bounds-checks every read so a hostile
// payload errors rather than panics.

// clientSharedCodecVersion is bumped whenever the ClientShared byte layout
// changes; decode rejects any other value.
const clientSharedCodecVersion = 1

// MarshalBinary encodes the artifact for UnmarshalClientShared.
func (cs *ClientShared) MarshalBinary() ([]byte, error) {
	capacity := 1024 + 16*len(cs.meta.Dims)
	for _, c := range cs.circuits {
		capacity += int(c.SizeBytes()) + 64
	}
	w := &bin.Writer{Buf: make([]byte, 0, capacity)}
	writeHeader(w, clientSharedCodecVersion, cs.params, cs.meta)
	if err := writeCircuits(w, cs.circuits); err != nil {
		return nil, err
	}
	return w.Buf, nil
}

// UnmarshalClientShared decodes an artifact produced by MarshalBinary,
// revalidating the metadata and re-deriving the matvec plans from it.
func UnmarshalClientShared(data []byte) (*ClientShared, error) {
	r := bin.NewReader(data)
	params, meta, err := readHeader(&r, clientSharedCodecVersion)
	if err != nil {
		return nil, err
	}
	if err := meta.Validate(); err != nil {
		return nil, codecErr(err)
	}
	circuits, err := readCircuits(&r, meta.NumReLULayers())
	if err != nil {
		return nil, err
	}

	cs := &ClientShared{params: params, meta: meta, circuits: circuits}
	cs.plans = make([]bfv.MatVecPlan, len(meta.Dims))
	for i, d := range meta.Dims {
		cs.plans[i] = bfv.PlanMatVec(params, d.Out, d.In)
	}
	cs.computeSize()
	return cs, nil
}
