package nn

import (
	"math/rand"

	"privinf/internal/field"
)

// ModelBuilder constructs small executable networks for the real
// cryptographic protocol by lowering conv/pool/fc pipelines to dense linear
// layers. Consecutive linear operations between ReLUs (e.g. pool followed
// by conv) are composed into a single matrix, so the lowered model is
// strictly alternating linear/ReLU — the structure DELPHI assumes.
type ModelBuilder struct {
	f    field.Field
	frac uint

	c, h, w int // current tensor geometry

	// current accumulated linear transform (W, b) since the last ReLU
	curW [][]int64
	curB []int64

	linear []LinearSpec
	shifts []uint
	// pending extra truncation bits for the next ReLU (pooling /4 folds
	// into the following truncation as +2 bits).
	pendingShift uint
}

// NewModelBuilder starts a model over field f with 2^frac fixed-point
// scale, for inputs of chans x res x res.
func NewModelBuilder(f field.Field, frac uint, chans, res int) *ModelBuilder {
	b := &ModelBuilder{f: f, frac: frac, c: chans, h: res, w: res}
	b.resetCurrent(chans * res * res)
	return b
}

func (b *ModelBuilder) resetCurrent(dim int) {
	b.curW = identityInt(dim)
	b.curB = make([]int64, dim)
}

func identityInt(n int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		m[i][i] = 1
	}
	return m
}

// composeInt sets cur = A·cur, bias = A·bias + aB.
func (b *ModelBuilder) composeInt(a [][]int64, aB []int64) {
	rows := len(a)
	cols := len(b.curW[0])
	mid := len(b.curW)
	newW := make([][]int64, rows)
	newB := make([]int64, rows)
	for r := 0; r < rows; r++ {
		newW[r] = make([]int64, cols)
		var acc int64
		for m := 0; m < mid; m++ {
			av := a[r][m]
			if av == 0 {
				continue
			}
			row := b.curW[m]
			for c := 0; c < cols; c++ {
				newW[r][c] += av * row[c]
			}
			acc += av * b.curB[m]
		}
		if aB != nil {
			acc += aB[r]
		}
		newB[r] = acc
	}
	b.curW = newW
	b.curB = newB
}

// AddConv appends a KxK same-padding stride-1 convolution with cout output
// channels; weights are sampled later in Build.
func (b *ModelBuilder) AddConv(cout, k int, rng *rand.Rand, wmax int64) *ModelBuilder {
	cin, h, w := b.c, b.h, b.w
	rows := cout * h * w
	cols := cin * h * w
	pad := k / 2

	// Sample the kernel, then place it as an im2col (Toeplitz) matrix.
	kernel := make([][][][]int64, cout)
	for co := range kernel {
		kernel[co] = make([][][]int64, cin)
		for ci := range kernel[co] {
			kernel[co][ci] = make([][]int64, k)
			for ky := range kernel[co][ci] {
				kernel[co][ci][ky] = make([]int64, k)
				for kx := range kernel[co][ci][ky] {
					kernel[co][ci][ky][kx] = rng.Int63n(2*wmax+1) - wmax
				}
			}
		}
	}

	m := make([][]int64, rows)
	for co := 0; co < cout; co++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				row := make([]int64, cols)
				for ci := 0; ci < cin; ci++ {
					for ky := 0; ky < k; ky++ {
						iy := y + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := x + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							row[ci*h*w+iy*w+ix] = kernel[co][ci][ky][kx]
						}
					}
				}
				m[co*h*w+y*w+x] = row
			}
		}
	}
	b.composeInt(m, nil)
	b.c = cout
	return b
}

// AddReLU flushes the accumulated linear transform and inserts a ReLU with
// the standard Frac-bit truncation plus any pending pooling compensation.
func (b *ModelBuilder) AddReLU() *ModelBuilder {
	b.flushLinear()
	b.shifts = append(b.shifts, b.frac+b.pendingShift)
	b.pendingShift = 0
	b.resetCurrent(b.c * b.h * b.w)
	return b
}

// AddPool appends 2x2 average pooling, realized as sum pooling composed
// into the adjacent linear layer with the /4 folded into the next
// truncation (+2 bits), keeping all arithmetic exact in the field.
func (b *ModelBuilder) AddPool() *ModelBuilder {
	c, h, w := b.c, b.h, b.w
	oh, ow := h/2, w/2
	m := make([][]int64, c*oh*ow)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				row := make([]int64, c*h*w)
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						row[ch*h*w+(2*y+dy)*w+(2*x+dx)] = 1
					}
				}
				m[ch*oh*ow+y*ow+x] = row
			}
		}
	}
	b.composeInt(m, nil)
	b.h, b.w = oh, ow
	b.pendingShift += 2
	return b
}

// AddFC appends a fully-connected layer out x (c*h*w).
func (b *ModelBuilder) AddFC(out int, rng *rand.Rand, wmax int64) *ModelBuilder {
	in := b.c * b.h * b.w
	m := make([][]int64, out)
	bias := make([]int64, out)
	for r := range m {
		m[r] = make([]int64, in)
		for c := range m[r] {
			m[r][c] = rng.Int63n(2*wmax+1) - wmax
		}
		bias[r] = rng.Int63n(2*wmax+1) - wmax
	}
	b.composeInt(m, bias)
	b.c, b.h, b.w = out, 1, 1
	return b
}

func (b *ModelBuilder) flushLinear() {
	rows := len(b.curW)
	spec := LinearSpec{W: make([][]uint64, rows), B: make([]uint64, rows)}
	for r := range b.curW {
		spec.W[r] = make([]uint64, len(b.curW[r]))
		for c, v := range b.curW[r] {
			spec.W[r][c] = b.f.FromInt64(v)
		}
		spec.B[r] = b.f.FromInt64(b.curB[r])
	}
	b.linear = append(b.linear, spec)
}

// Build flushes the final linear stage and returns the lowered model.
func (b *ModelBuilder) Build() (*Lowered, error) {
	b.flushLinear()
	m := &Lowered{F: b.f, Frac: b.frac, Linear: b.linear, Shifts: b.shifts}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// DemoCNN builds the small quantized CNN used by examples and protocol
// tests: 8x8 single-channel input, two conv+pool stages, FC classifier.
// Deterministic for a given seed.
func DemoCNN(f field.Field, seed int64) (*Lowered, error) {
	rng := rand.New(rand.NewSource(seed))
	const frac = 4
	b := NewModelBuilder(f, frac, 1, 8)
	b.AddConv(4, 3, rng, 3).AddReLU()
	b.AddPool().AddConv(8, 3, rng, 3).AddReLU()
	b.AddPool().AddFC(10, rng, 3)
	return b.Build()
}

// DemoMLP builds a small fully-connected network: 64 -> 32 -> 16 -> 10.
func DemoMLP(f field.Field, seed int64) (*Lowered, error) {
	rng := rand.New(rand.NewSource(seed))
	const frac = 4
	b := NewModelBuilder(f, frac, 1, 8)
	b.AddFC(32, rng, 3).AddReLU()
	b.AddFC(16, rng, 3).AddReLU()
	b.AddFC(10, rng, 3)
	return b.Build()
}
