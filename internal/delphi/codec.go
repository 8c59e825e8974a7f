package delphi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"privinf/internal/bfv"
	"privinf/internal/boolcirc"
	"privinf/internal/nn"
)

// Binary codec for SharedModel, the persistence half of artifact caching:
// building an artifact costs O(layers × N·logN) NTTs per process (the
// dominant per-model cost the serving engine pays), while decoding one is a
// linear scan. Serializing the artifact to disk turns server restarts into
// O(load) instead of O(encode), and lets a registry's LRU eviction spill
// and reload artifacts instead of dropping and re-encoding them (see
// serve.ArtifactStore).
//
// The encoding stores only what is expensive to rebuild — the HE parameter
// identity (N, T), the public model metadata, the matvec plans, the
// NTT-domain weight plaintexts, and the built ReLU circuits (deduplicated:
// layers with equal shift share one circuit, on disk and after reload).
// The raw model weights are NOT stored: decoding takes the source
// *nn.Lowered (which the registry retains for the life of a registration)
// and verifies the stored metadata matches it, so a stale or mismatched
// file fails cleanly instead of serving another model's weights.
//
// Integrity (checksums, format versioning, truncation detection) is the
// enclosing store's job; this codec still bounds-checks every read so a
// hostile payload errors rather than panics.

// sharedModelCodecVersion is bumped whenever the SharedModel byte layout
// changes; decode rejects any other value.
const sharedModelCodecVersion = 1

// weightDigests memoizes modelWeightsDigest by model pointer. Models are
// immutable once registered (the registry retains one pointer for the life
// of a registration), so the digest is computed once per model per process
// and reload-time verification stays O(1). The cache is bounded: past
// maxCachedDigests entries it is cleared wholesale rather than pinning
// transient models (and their weight matrices) forever — a digest is cheap
// to recompute, a leaked model is not cheap to hold.
var (
	weightDigestMu sync.Mutex
	weightDigests  = map[*nn.Lowered]uint64{}
)

const maxCachedDigests = 256

// modelWeightsDigest fingerprints the model's raw weights and biases
// (CRC-32C over the concatenated coefficient words; row boundaries are
// fixed by the dims already checked against the metadata). Architecture
// alone cannot distinguish a retrained or reseeded model — the shapes
// match while every weight differs — so the artifact format stores this
// digest and decode recomputes it from the supplied model, rejecting a
// stale file instead of silently serving another model's encoded weights.
func modelWeightsDigest(m *nn.Lowered) uint64 {
	weightDigestMu.Lock()
	if d, ok := weightDigests[m]; ok {
		weightDigestMu.Unlock()
		return d
	}
	weightDigestMu.Unlock()
	tab := crc32.MakeTable(crc32.Castagnoli)
	var crc uint32
	buf := make([]byte, 0, 1<<13)
	mix := func(vals []uint64) {
		buf = buf[:0]
		var w [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(w[:], v)
			buf = append(buf, w[:]...)
		}
		crc = crc32.Update(crc, tab, buf)
	}
	for _, lin := range m.Linear {
		for _, row := range lin.W {
			mix(row)
		}
		mix(lin.B)
	}
	d := uint64(crc)
	weightDigestMu.Lock()
	if len(weightDigests) >= maxCachedDigests {
		clear(weightDigests)
	}
	weightDigests[m] = d
	weightDigestMu.Unlock()
	return d
}

// MarshalBinary encodes the artifact for UnmarshalSharedModel.
func (sm *SharedModel) MarshalBinary() ([]byte, error) {
	// One allocation up front: the weight plaintexts dominate and their
	// encoded size is exact; headers, plans and circuits get padded slack.
	// This runs inside the registry's single-flight window, so transient
	// copies here are paid by every session waiting on the model.
	capacity := 1024 + len(sm.plans)*(bfv.MatVecPlanBytes+64) + 16*len(sm.meta.Dims)
	for _, layer := range sm.weights {
		capacity += 8
		for _, pt := range layer {
			capacity += 8 + int(pt.SizeBytes())
		}
	}
	for _, c := range sm.circuits {
		capacity += int(c.SizeBytes()) + 64
	}
	w := codecWriter{buf: make([]byte, 0, capacity)}
	// The metadata is redundant with the model handed to the decoder —
	// that redundancy is the mismatch check.
	w.header(sharedModelCodecVersion, sm.params, sm.meta)
	w.u64(modelWeightsDigest(sm.model))

	w.u64(uint64(len(sm.plans)))
	for _, pl := range sm.plans {
		raw, err := pl.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.bytes(raw)
	}

	w.u64(uint64(len(sm.weights)))
	for _, layer := range sm.weights {
		w.u64(uint64(len(layer)))
		for _, pt := range layer {
			var err error
			if w.buf, err = pt.AppendBinary(w.buf); err != nil {
				return nil, err
			}
		}
	}

	if err := w.circuits(sm.circuits); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// UnmarshalSharedModel decodes an artifact produced by MarshalBinary and
// attaches it to its source model. The stored metadata must match
// MetaOf(model) exactly — a file persisted for a different (or since
// retrained) model is rejected.
func UnmarshalSharedModel(data []byte, model *nn.Lowered) (*SharedModel, error) {
	if model == nil {
		return nil, fmt.Errorf("delphi: codec: nil model")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	r := codecReader{buf: data}
	params, meta, err := r.header(sharedModelCodecVersion)
	if err != nil {
		return nil, err
	}
	numDims := len(meta.Dims)
	if want := MetaOf(model); !reflect.DeepEqual(meta, want) {
		return nil, fmt.Errorf("delphi: codec: stored model metadata does not match the supplied model (stored %d layers over p=%d, model %d layers over p=%d)",
			len(meta.Dims), meta.P, len(want.Dims), want.P)
	}
	digest := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if want := modelWeightsDigest(model); digest != want {
		// Same architecture, different weights: a retrained or reseeded
		// model over a stale file. The encoded plaintexts would decode
		// cleanly and serve the OLD weights, so this is the only line of
		// defense.
		return nil, fmt.Errorf("delphi: codec: stored weight digest %016x does not match the supplied model's %016x (stale artifact for a retrained model?)", digest, want)
	}

	numPlans := int(r.u64())
	if r.err != nil {
		return nil, r.err
	}
	if numPlans != numDims {
		return nil, fmt.Errorf("delphi: codec: %d plans for %d layers", numPlans, numDims)
	}
	plans := make([]bfv.MatVecPlan, numPlans)
	for i := range plans {
		raw := r.take(bfv.MatVecPlanBytes)
		if r.err != nil {
			return nil, r.err
		}
		if err := plans[i].UnmarshalBinary(raw); err != nil {
			return nil, err
		}
		if plans[i].Params.N != params.N || plans[i].Params.T != params.T {
			return nil, fmt.Errorf("delphi: codec: plan %d params (N=%d, T=%d) != artifact params (N=%d, T=%d)",
				i, plans[i].Params.N, plans[i].Params.T, params.N, params.T)
		}
		if d := meta.Dims[i]; plans[i].In != d.In || plans[i].Out != d.Out {
			return nil, fmt.Errorf("delphi: codec: plan %d shape %dx%d != layer dim %dx%d",
				i, plans[i].Out, plans[i].In, d.Out, d.In)
		}
	}

	numWeightLayers := int(r.u64())
	if r.err != nil {
		return nil, r.err
	}
	if numWeightLayers != numDims {
		return nil, fmt.Errorf("delphi: codec: %d weight layers for %d layers", numWeightLayers, numDims)
	}
	// Slice every plaintext's exact span first (counts are pinned to the
	// plan geometry, so each record is a fixed 8+8N bytes — a stored degree
	// other than N fails the record's own length check), then decode the
	// records on a bounded worker pool. Decode is the load path's dominant
	// cost and every record is independent — the mirror image of the
	// parallel encode in bfv.EncodeMatrix.
	weights := make([][]bfv.Plaintext, numWeightLayers)
	type ptJob struct {
		layer, idx int
		raw        []byte
	}
	var jobs []ptJob
	for i := range weights {
		count := int(r.u64())
		if r.err != nil {
			return nil, r.err
		}
		if want := plans[i].NumOutputCts() * plans[i].NumInputCts(); count != want {
			return nil, fmt.Errorf("delphi: codec: layer %d has %d weight plaintexts, want %d", i, count, want)
		}
		weights[i] = make([]bfv.Plaintext, count)
		for j := 0; j < count; j++ {
			raw := r.take(8 + 8*params.N)
			if r.err != nil {
				return nil, r.err
			}
			jobs = append(jobs, ptJob{layer: i, idx: j, raw: raw})
		}
	}
	// All coefficient vectors come from one pointer-free slab: one
	// allocation and one zeroing pass instead of len(jobs) of each, and
	// nothing extra for the GC to track.
	backing := make([]uint64, len(jobs)*params.N)
	decodeJob := func(j int) error {
		job := jobs[j]
		return weights[job.layer][job.idx].UnmarshalBinaryBuffer(job.raw, backing[j*params.N:(j+1)*params.N])
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for j := range jobs {
			if err := decodeJob(j); err != nil {
				return nil, err
			}
		}
	} else {
		var next atomic.Int64
		errs := make([]error, workers)
		var wg sync.WaitGroup
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func(k int) {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(jobs) || errs[k] != nil {
						return
					}
					errs[k] = decodeJob(j)
				}
			}(k)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	circuits, err := r.circuits(meta.NumReLULayers())
	if err != nil {
		return nil, err
	}

	sm := &SharedModel{
		params:   params,
		meta:     meta,
		model:    model,
		plans:    plans,
		weights:  weights,
		circuits: circuits,
		encoder:  bfv.NewEncoder(params),
	}
	sm.computeSize()
	return sm, nil
}

// codecWriter appends little-endian fields to a growing buffer.
type codecWriter struct {
	buf []byte
}

func (w *codecWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

func (w *codecWriter) bytes(b []byte) { w.buf = append(w.buf, b...) }

// header writes what both artifact codecs open with: the codec version, the
// HE parameter identity (N, T) and the public model metadata.
func (w *codecWriter) header(version uint64, params bfv.Params, meta ModelMeta) {
	w.u64(version)
	w.u64(uint64(params.N))
	w.u64(params.T)
	w.u64(meta.P)
	w.u64(uint64(meta.Frac))
	w.u64(uint64(len(meta.Dims)))
	for _, d := range meta.Dims {
		w.u64(uint64(d.In))
		w.u64(uint64(d.Out))
	}
	w.u64(uint64(len(meta.Shifts)))
	for _, s := range meta.Shifts {
		w.u64(uint64(s))
	}
}

// circuits writes the per-layer ReLU circuits both artifacts end with,
// deduplicated by pointer: buildCircuits shares one circuit across layers
// with equal shift, and the codec preserves that sharing.
func (w *codecWriter) circuits(circuits []*boolcirc.Circuit) error {
	unique := make([]*boolcirc.Circuit, 0, len(circuits))
	index := make(map[*boolcirc.Circuit]uint64, len(circuits))
	for _, c := range circuits {
		if _, ok := index[c]; !ok {
			index[c] = uint64(len(unique))
			unique = append(unique, c)
		}
	}
	w.u64(uint64(len(unique)))
	for _, c := range unique {
		raw, err := c.MarshalBinary()
		if err != nil {
			return err
		}
		w.u64(uint64(len(raw)))
		w.bytes(raw)
	}
	w.u64(uint64(len(circuits)))
	for _, c := range circuits {
		w.u64(index[c])
	}
	return nil
}

// codecReader consumes little-endian fields with sticky error tracking, so
// a truncated payload surfaces as one error instead of a slice panic.
type codecReader struct {
	buf []byte
	off int
	err error
}

var errCodecTruncated = fmt.Errorf("delphi: codec: payload truncated")

func (r *codecReader) remaining() int { return len(r.buf) - r.off }

func (r *codecReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.err = errCodecTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *codecReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.err = errCodecTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// header reads what codecWriter.header wrote, rejecting any other version,
// HE parameters that do not build, and metadata the payload cannot hold.
func (r *codecReader) header(version uint64) (bfv.Params, ModelMeta, error) {
	var meta ModelMeta
	if v := r.u64(); r.err == nil && v != version {
		return bfv.Params{}, meta, fmt.Errorf("delphi: codec: artifact codec version %d, want %d", v, version)
	}
	n := int(r.u64())
	t := r.u64()
	if r.err != nil {
		return bfv.Params{}, meta, r.err
	}
	params, err := bfv.NewParams(n, t)
	if err != nil {
		return params, meta, fmt.Errorf("delphi: codec: %w", err)
	}
	meta.P = r.u64()
	meta.Frac = uint(r.u64())
	numDims := int(r.u64())
	if r.err != nil {
		return params, meta, r.err
	}
	if numDims <= 0 || numDims > r.remaining()/16 {
		return params, meta, fmt.Errorf("delphi: codec: %d layer dims inconsistent with payload", numDims)
	}
	meta.Dims = make([]LayerDim, numDims)
	for i := range meta.Dims {
		meta.Dims[i] = LayerDim{In: int(r.u64()), Out: int(r.u64())}
	}
	numShifts := int(r.u64())
	if r.err != nil {
		return params, meta, r.err
	}
	if numShifts < 0 || numShifts > r.remaining()/8 {
		return params, meta, fmt.Errorf("delphi: codec: %d shifts inconsistent with payload", numShifts)
	}
	if numShifts > 0 {
		meta.Shifts = make([]uint, numShifts)
		for i := range meta.Shifts {
			meta.Shifts[i] = uint(r.u64())
		}
	}
	if r.err != nil {
		return params, meta, r.err
	}
	if params.T != meta.P {
		return params, meta, fmt.Errorf("delphi: codec: HE plaintext modulus %d != model field %d", params.T, meta.P)
	}
	return params, meta, nil
}

// circuits reads what codecWriter.circuits wrote — it must be the
// payload's tail — for a model of the given number of ReLU layers.
func (r *codecReader) circuits(layers int) ([]*boolcirc.Circuit, error) {
	numUnique := int(r.u64())
	if r.err != nil {
		return nil, r.err
	}
	if numUnique < 0 || numUnique > layers+1 {
		return nil, fmt.Errorf("delphi: codec: %d unique circuits for %d layers", numUnique, layers+1)
	}
	unique := make([]*boolcirc.Circuit, numUnique)
	for i := range unique {
		clen := int(r.u64())
		raw := r.take(clen)
		if r.err != nil {
			return nil, r.err
		}
		unique[i] = new(boolcirc.Circuit)
		if err := unique[i].UnmarshalBinary(raw); err != nil {
			return nil, err
		}
	}
	numCircuits := int(r.u64())
	if r.err != nil {
		return nil, r.err
	}
	if numCircuits != layers {
		return nil, fmt.Errorf("delphi: codec: %d circuit layers, want %d", numCircuits, layers)
	}
	var circuits []*boolcirc.Circuit
	if numCircuits > 0 {
		circuits = make([]*boolcirc.Circuit, numCircuits)
	}
	for i := range circuits {
		idx := r.u64()
		if r.err != nil {
			return nil, r.err
		}
		if idx >= uint64(numUnique) {
			return nil, fmt.Errorf("delphi: codec: circuit layer %d references table entry %d of %d", i, idx, numUnique)
		}
		circuits[i] = unique[idx]
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("delphi: codec: %d trailing bytes", r.remaining())
	}
	return circuits, nil
}
