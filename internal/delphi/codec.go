package delphi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"

	"privinf/internal/bfv"
	"privinf/internal/bin"
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
// The encoding stores only what is expensive to rebuild: the NTT-domain
// weight plaintexts, behind a header of the HE parameter identity (N, T),
// the public model metadata and a digest of the raw weights. Nothing derived
// from the metadata is stored — decode derives the matvec plans and the
// ReLU circuits again (derive), so a circuit change moves no byte on disk. The raw
// model weights are NOT stored either: decoding takes the source
// *nn.Lowered (which the registry retains for the life of a registration)
// and verifies the stored metadata and digest match it, so a stale or
// mismatched file fails cleanly instead of serving another model's weights.
//
// Integrity (checksums, format versioning, truncation detection) is the
// enclosing store's job; this codec still bounds-checks every read so a
// hostile payload errors rather than panics.

// sharedModelCodecVersion is bumped whenever the SharedModel byte layout
// changes; decode rejects any other value. Version 3 packs weights for the
// byte-minimal plans of bfv.PlanMatVec. A version-2 file must not load even
// where its plaintext count matches: the demo CNN's layer 1 holds 8 under
// either plan (8 responses × 1 upload, then 4 × 2), each packing another
// chunk of the rows.
const sharedModelCodecVersion = 3

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
	// encoded size is exact; the header gets padded slack. This runs inside
	// the registry's single-flight window, so transient copies here are paid
	// by every session waiting on the model.
	capacity := 1024 + 16*len(sm.meta.Dims)
	for _, layer := range sm.weights {
		capacity += 8
		for _, pt := range layer {
			capacity += 8 + int(pt.SizeBytes())
		}
	}
	w := &bin.Writer{Buf: make([]byte, 0, capacity)}
	// The metadata is redundant with the model handed to the decoder —
	// that redundancy is the mismatch check.
	writeHeader(w, sm.params, sm.meta)
	w.U64(modelWeightsDigest(sm.model))
	w.U64(uint64(len(sm.weights)))
	for _, layer := range sm.weights {
		w.U64(uint64(len(layer)))
		for _, pt := range layer {
			var err error
			if w.Buf, err = pt.AppendBinary(w.Buf); err != nil {
				return nil, err
			}
		}
	}
	return w.Buf, nil
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
	r := bin.NewReader(data)
	params, meta, err := readHeader(&r)
	if err != nil {
		return nil, err
	}
	numDims := len(meta.Dims)
	if want := MetaOf(model); !meta.Equal(want) {
		return nil, fmt.Errorf("delphi: codec: stored model metadata does not match the supplied model (stored %d layers over p=%d, model %d layers over p=%d)",
			len(meta.Dims), meta.P, len(want.Dims), want.P)
	}
	digest := r.U64()
	if r.Err() != nil {
		return nil, codecErr(r.Err())
	}
	if want := modelWeightsDigest(model); digest != want {
		// Same architecture, different weights: a retrained or reseeded
		// model over a stale file. The encoded plaintexts would decode
		// cleanly and serve the OLD weights, so this is the only line of
		// defense.
		return nil, fmt.Errorf("delphi: codec: stored weight digest %016x does not match the supplied model's %016x (stale artifact for a retrained model?)", digest, want)
	}

	d, err := derive(params, meta)
	if err != nil {
		return nil, codecErr(err)
	}
	if err := d.checkNoise(model); err != nil {
		return nil, err
	}

	numWeightLayers := r.Count(8)
	if r.Err() != nil {
		return nil, codecErr(r.Err())
	}
	if numWeightLayers != numDims {
		return nil, fmt.Errorf("delphi: codec: %d weight layers for %d layers", numWeightLayers, numDims)
	}
	// Slice every plaintext's exact span first (counts are pinned to the
	// plan geometry, so each record is a fixed 8+8N bytes — a stored degree
	// other than N fails the record's own length check) and require the
	// payload to end there, then decode the records on a bounded worker
	// pool. Decode is the load path's dominant cost and every record is
	// independent — the mirror image of the parallel encode in
	// bfv.EncodeMatrix.
	weights := make([][]bfv.Plaintext, numWeightLayers)
	type ptJob struct {
		layer, idx int
		raw        []byte
	}
	var jobs []ptJob
	for i := range weights {
		count := r.Count(8 + 8*params.N)
		if r.Err() != nil {
			return nil, codecErr(r.Err())
		}
		if want := d.plans[i].NumOutputCts() * d.plans[i].NumInputCts(); count != want {
			return nil, fmt.Errorf("delphi: codec: layer %d has %d weight plaintexts, want %d", i, count, want)
		}
		weights[i] = make([]bfv.Plaintext, count)
		for j := 0; j < count; j++ {
			jobs = append(jobs, ptJob{layer: i, idx: j, raw: r.Take(8 + 8*params.N)})
		}
	}
	if err := r.Done(); err != nil {
		return nil, codecErr(err)
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

	sm := &SharedModel{derived: d, model: model, weights: weights}
	sm.computeSize()
	return sm, nil
}

// codecErr names this codec in a cursor failure.
func codecErr(err error) error { return fmt.Errorf("delphi: codec: %w", err) }

// writeHeader writes what the artifact opens with: the codec version, the
// HE parameter identity (N, T) and the public model metadata.
func writeHeader(w *bin.Writer, params bfv.Params, meta ModelMeta) {
	w.U64(sharedModelCodecVersion)
	w.U64(uint64(params.N))
	w.U64(params.T)
	w.U64(meta.P)
	w.U64(uint64(meta.Frac))
	w.U64(uint64(len(meta.Dims)))
	for _, d := range meta.Dims {
		w.U64(uint64(d.In))
		w.U64(uint64(d.Out))
	}
	w.U64(uint64(len(meta.Shifts)))
	for _, s := range meta.Shifts {
		w.U64(uint64(s))
	}
}

// readHeader reads what writeHeader wrote, rejecting any other version, HE
// parameters that do not build, and metadata the payload cannot hold.
func readHeader(r *bin.Reader) (bfv.Params, ModelMeta, error) {
	var meta ModelMeta
	if v := r.U64(); r.Err() == nil && v != sharedModelCodecVersion {
		return bfv.Params{}, meta, fmt.Errorf("delphi: codec: artifact codec version %d, want %d", v, sharedModelCodecVersion)
	}
	n := int(r.U64())
	t := r.U64()
	if r.Err() != nil {
		return bfv.Params{}, meta, codecErr(r.Err())
	}
	params, err := bfv.NewParams(n, t)
	if err != nil {
		return params, meta, codecErr(err)
	}
	meta.P = r.U64()
	meta.Frac = uint(r.U64())
	meta.Dims = make([]LayerDim, r.Count(16))
	for i := range meta.Dims {
		meta.Dims[i] = LayerDim{In: int(r.U64()), Out: int(r.U64())}
	}
	if numShifts := r.Count(8); numShifts > 0 {
		meta.Shifts = make([]uint, numShifts)
		for i := range meta.Shifts {
			meta.Shifts[i] = uint(r.U64())
		}
	}
	if r.Err() != nil {
		return params, meta, codecErr(r.Err())
	}
	return params, meta, nil
}
