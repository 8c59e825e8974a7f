package bfv

// Packed matrix-vector products with coefficient packing (the Cheetah/Iron
// encoding): a dot product of length k appears as coefficient k-1 of the
// negacyclic product r(X) * rev(w)(X), so a matrix-vector product needs only
// ct×pt multiplications and additions — no rotation keys. This is how the
// protocol layer evaluates convolution and fully-connected layers
// homomorphically in the offline phase (conv layers are lowered to matvec
// via im2col in the nn package).
//
import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Layout. The input vector of length `in` is split into chunks of size
// chunk ≤ N; each chunk is one ciphertext with the chunk at coefficients
// 0..chunk-1. For each chunk, floor(N/chunk) output rows are packed into one
// plaintext: row m's reversed weights occupy coefficients
// [m*chunk, m*chunk + chunk - 1], so row m's partial dot product lands at
// coefficient m*chunk + chunk - 1. Cross terms fall on unread coefficients
// or wrap negacyclically past N into coefficients < chunk-1, never onto a
// read position.

// MatVecPlan precomputes the packing geometry for an out×in matrix.
type MatVecPlan struct {
	Params  Params
	In, Out int
	Chunk   int // input coefficients per ciphertext
	RowsPer int // output rows packed per plaintext
}

// PlanMatVec chooses the packing for an out×in matrix under params p: of
// the chunks 1..min(in, N), the one whose uploads and responses take the
// fewest bytes, then the fewest ct×pt products, then the smallest chunk.
// Both costs depend on the chunk only through the input count and the rows
// a plaintext holds, so it visits one chunk per distinct pair: O(√N) of
// them, cheap enough for every connect to plan its model again.
func PlanMatVec(p Params, out, in int) MatVecPlan {
	var best MatVecPlan
	var bestBytes, bestProducts int
	for chunk := 1; chunk <= min(in, p.N); {
		pl := MatVecPlan{Params: p, In: in, Out: out, Chunk: chunk, RowsPer: max(1, min(p.N/chunk, out))}
		bytes, products := pl.transportBytes(), pl.NumInputCts()*pl.NumOutputCts()
		if best.Chunk == 0 || bytes < bestBytes || bytes == bestBytes && products < bestProducts {
			best, bestBytes, bestProducts = pl, bytes, products
		}
		// The next chunk with fewer rows a plaintext or fewer input cts.
		next := p.N/(p.N/chunk) + 1
		if q := (in - 1) / chunk; q > 0 {
			next = min(next, (in-1)/q+1)
		}
		chunk = next
	}
	return best
}

// transportBytes returns what one product costs on the wire: its uploads,
// SeedSize + 8·N bytes each, and its responses.
func (pl MatVecPlan) transportBytes() int {
	n := pl.NumOutputCts()
	return pl.NumInputCts()*(SeedSize+8*pl.Params.N) + (n-1)*pl.responseBytes(0) + pl.responseBytes(n-1)
}

// NumInputCts returns how many ciphertexts the input vector occupies.
func (pl MatVecPlan) NumInputCts() int {
	return (pl.In + pl.Chunk - 1) / pl.Chunk
}

// NumOutputCts returns how many result ciphertexts the product occupies.
func (pl MatVecPlan) NumOutputCts() int {
	return (pl.Out + pl.RowsPer - 1) / pl.RowsPer
}

// chunks splits x (length In) into the NumInputCts messages of the input.
func (pl MatVecPlan) chunks(x []uint64) [][]uint64 {
	if len(x) != pl.In {
		panic("bfv: matvec input length mismatch")
	}
	out := make([][]uint64, pl.NumInputCts())
	for c := range out {
		out[c] = x[c*pl.Chunk : min((c+1)*pl.Chunk, pl.In)]
	}
	return out
}

// EncryptVector splits x (length In, values mod T) into chunk ciphertexts.
func (pl MatVecPlan) EncryptVector(enc *Encryptor, x []uint64) []Ciphertext {
	// Batch encryption amortizes the forward NTTs across the chunks; the
	// entropy draw order matches per-chunk EncryptCoeffs calls exactly.
	return enc.EncryptCoeffsBatch(pl.chunks(x))
}

// EncryptUploads splits x (length In, values mod T) into chunk uploads.
func (pl MatVecPlan) EncryptUploads(enc *SeededEncryptor, x []uint64) []Upload {
	chunks := pl.chunks(x)
	out := make([]Upload, len(chunks))
	for c, m := range chunks {
		out[c] = enc.EncryptCoeffs(m)
	}
	return out
}

// EncodeMatrix packs the weight matrix w (w[r][c], Out rows of In columns,
// values mod T) into plaintexts indexed [outputCt][inputCt]. Output-ct rows
// are independent, so they are encoded by a bounded worker pool — this is
// the dominant cost of building a model artifact (one NTT per plaintext).
func (pl MatVecPlan) EncodeMatrix(e *Encoder, w [][]uint64) [][]Plaintext {
	if len(w) != pl.Out {
		panic("bfv: matvec matrix row count mismatch")
	}
	nOut := pl.NumOutputCts()
	pts := make([][]Plaintext, nOut)
	workers := min(runtime.GOMAXPROCS(0), nOut)
	if workers <= 1 {
		for oc := 0; oc < nOut; oc++ {
			pts[oc] = pl.encodeOutputCt(e, w, oc)
		}
		return pts
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				oc := int(next.Add(1)) - 1
				if oc >= nOut {
					return
				}
				pts[oc] = pl.encodeOutputCt(e, w, oc)
			}
		}()
	}
	wg.Wait()
	return pts
}

// encodeOutputCt encodes the plaintexts of one output-ct row using pooled
// scratch for the packing buffer.
func (pl MatVecPlan) encodeOutputCt(e *Encoder, w [][]uint64, oc int) []Plaintext {
	nIn := pl.NumInputCts()
	row := make([]Plaintext, nIn)
	buf := getScratch(pl.Params.N)
	defer putScratch(buf)
	for ic := 0; ic < nIn; ic++ {
		clear(buf)
		colLo := ic * pl.Chunk
		colHi := min(colLo+pl.Chunk, pl.In)
		for m := range pl.slots(oc) {
			r := oc*pl.RowsPer + m
			// Reversed row m of this column chunk at offset m*Chunk.
			for j := colLo; j < colHi; j++ {
				buf[m*pl.Chunk+(pl.Chunk-1-(j-colLo))] = w[r][j]
			}
		}
		row[ic] = e.EncodeMulNTT(buf)
	}
	return row
}

// Apply computes the encrypted matrix-vector product: for each output
// ciphertext, sum over input chunks of ct[ic] * pt[oc][ic].
func (pl MatVecPlan) Apply(pts [][]Plaintext, cts []Ciphertext) []Ciphertext {
	out := make([]Ciphertext, len(pts))
	for oc := range pts {
		acc := ZeroCiphertext(pl.Params)
		for ic := range pts[oc] {
			AccumulateMulPlain(&acc, cts[ic], pts[oc][ic])
		}
		canonicalizeCt(&acc)
		out[oc] = acc
	}
	return out
}

// ExtractResult reads the Out dot products from decrypted coefficient
// vectors (one per output ciphertext).
func (pl MatVecPlan) ExtractResult(decrypted [][]uint64) []uint64 {
	out := make([]uint64, pl.Out)
	for r := 0; r < pl.Out; r++ {
		oc := r / pl.RowsPer
		m := r % pl.RowsPer
		out[r] = decrypted[oc][pl.slot(m)]
	}
	return out
}

// MaskPlaintext encodes a mask vector s (length Out) for output ciphertext
// oc, placing s[r] at row r's result coefficient, for SubPlainInto.
func (pl MatVecPlan) MaskPlaintext(e *Encoder, s []uint64, oc int) Plaintext {
	buf := getScratch(pl.Params.N)
	defer putScratch(buf)
	for m := range pl.slots(oc) {
		buf[pl.slot(m)] = s[oc*pl.RowsPer+m]
	}
	return e.EncodeAddNTT(buf)
}
