package bfv

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"privinf/internal/field"
	"privinf/internal/nn"
)

// oracleBytes is what a product's uploads and responses take on the wire
// at the given chunk, counted one record at a time.
func oracleBytes(p Params, out, in, chunk int) (bytes, products int) {
	uploads := (in + chunk - 1) / chunk
	rows := max(1, min(p.N/chunk, out))
	k, responses := p.responseBits(), 0
	for done := 0; done < out; done += rows {
		bytes += (k*(p.N+min(rows, out-done)) + 7) / 8
		responses++
	}
	return bytes + uploads*(SeedSize+8*p.N), uploads * responses
}

// TestPlanMatVecMinimizesBytes checks the planner against a brute-force
// oracle over every chunk 1..min(In, N): none moves fewer bytes, and none
// that moves as few needs fewer ct×pt products. The grid has In and Out
// above N and prime sizes on both sides.
func TestPlanMatVecMinimizesBytes(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 10, 16, 31, 64, 127, 128, 256, 257, 1000, 4093, 4096, 4099, 9001}
	for _, p := range []Params{mustParams(DefaultN, field.P20), mustParams(256, field.P17)} {
		for _, out := range sizes {
			for _, in := range sizes {
				pl := PlanMatVec(p, out, in)
				bytes, products := oracleBytes(p, out, in, pl.Chunk)
				if got := pl.transportBytes(); got != bytes {
					t.Fatalf("N=%d %dx%d chunk %d: plan counts %d B, the oracle %d", p.N, out, in, pl.Chunk, got, bytes)
				}
				for chunk := 1; chunk <= min(in, p.N); chunk++ {
					b, pr := oracleBytes(p, out, in, chunk)
					if b < bytes || b == bytes && pr < products {
						t.Fatalf("N=%d %dx%d: chunk %d takes %d B and %d products, the plan's chunk %d %d B and %d",
							p.N, out, in, chunk, b, pr, pl.Chunk, bytes, products)
					}
				}
			}
		}
	}
}

// TestPlannedProductsDecrypt runs the protocol's offline leg on the
// planner's choice over a grid with In above N and prime sizes: seeded
// uploads, Apply, re-randomized responses, and slot decryption must give
// W·x − s exactly.
func TestPlannedProductsDecrypt(t *testing.T) {
	p := mustParams(256, field.P17)
	f := field.New(p.T)
	rng := rand.New(rand.NewSource(70))
	sk, pk := KeyGen(p, newSeeded(71))
	enc := NewSeededEncryptor(p, sk, newSeeded(72))
	dec := NewDecryptor(p, sk)
	e := NewEncoder(p)
	sizes := []int{1, 3, 31, 127, 257, 300, 1000}
	for _, out := range sizes {
		for _, in := range sizes {
			pl := PlanMatVec(p, out, in)
			w := make([][]uint64, out)
			for r := range w {
				w[r] = make([]uint64, in)
				for c := range w[r] {
					w[r][c] = (uint64(rng.Intn(7)) + p.T - 3) % p.T
				}
			}
			x, mask := randomMessage(rng, p, in), randomMessage(rng, p, out)
			var cts []Ciphertext
			for _, up := range pl.EncryptUploads(enc, x) {
				cts = append(cts, up.Ciphertext())
			}
			outs := pl.Apply(pl.EncodeMatrix(e, w), cts)
			rs := make([]Response, len(outs))
			for oc := range outs {
				rs[oc] = pl.Respond(&outs[oc], mask, oc, pk.Expand(), [SeedSize]byte{byte(oc)})
			}
			got := pl.DecryptResponses(dec, rs)
			for r := range got {
				if want := f.Sub(f.DotProduct(w[r], x), mask[r]); got[r] != want {
					t.Fatalf("%dx%d chunk %d row %d: %d, want %d", out, in, pl.Chunk, r, got[r], want)
				}
			}
		}
	}
}

// TestDemoPlans pins the demo models' offline HE leg: the CNN's first two
// layers split their input over two uploads to halve their responses, 5
// uploads and 7 responses in all (3 and 13, 326,331 B, when every layer
// took one upload), with 4 + 8 + 1 ct×pt products as before; every MLP
// layer keeps its one upload and one response.
func TestDemoPlans(t *testing.T) {
	f := field.New(field.P20)
	p := mustParams(DefaultN, field.P20)
	for _, c := range []struct {
		name                      string
		build                     func(field.Field, int64) (*nn.Lowered, error)
		chunks, products          []int
		uploads, responses, bytes int
	}{
		{"cnn", nn.DemoCNN, []int{32, 128, 128}, []int{4, 8, 1}, 5, 7, 287451},
		{"mlp", nn.DemoMLP, []int{64, 32, 16}, []int{1, 1, 1}, 3, 3, 150823},
	} {
		m, err := c.build(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		var chunks, products []int
		var uploads, responses, bytes int
		for _, lin := range m.Linear {
			pl := PlanMatVec(p, lin.Out(), lin.In())
			chunks = append(chunks, pl.Chunk)
			products = append(products, pl.NumInputCts()*pl.NumOutputCts())
			uploads += pl.NumInputCts()
			responses += pl.NumOutputCts()
			bytes += pl.transportBytes()
			t.Logf("%s %d×%d: chunk %d, %d uploads, %d responses, %d B", c.name, lin.Out(), lin.In(), pl.Chunk, pl.NumInputCts(), pl.NumOutputCts(), pl.transportBytes())
		}
		if !reflect.DeepEqual(chunks, c.chunks) || !reflect.DeepEqual(products, c.products) ||
			uploads != c.uploads || responses != c.responses || bytes != c.bytes {
			t.Errorf("%s: chunks %v, products %v, %d uploads, %d responses, %d B; want %v, %v, %d, %d, %d",
				c.name, chunks, products, uploads, responses, bytes, c.chunks, c.products, c.uploads, c.responses, c.bytes)
		}
	}
}

// TestFloodHidesDemoWeights evaluates the package doc's bounds on the demo
// models over several seeds: every layer passes CheckNoise, and the
// flood's statistical distance, (|v_mat| + 4N + 2)/2^(f+1) a slot,
// stays under the figures the doc states: 2^−17.8 a slot and 2^−11.2 a
// pre-compute on the CNN, 2^−19 and 2^−13.8 on the MLP.
func TestFloodHidesDemoWeights(t *testing.T) {
	f := field.New(field.P20)
	p := mustParams(DefaultN, field.P20)
	flood := math.Ldexp(1, p.floodBits()+1)
	for _, c := range []struct {
		name            string
		build           func(field.Field, int64) (*nn.Lowered, error)
		slotBits, total float64
	}{
		{"cnn", nn.DemoCNN, 17.8, 11.2},
		{"mlp", nn.DemoMLP, 19, 13.8},
	} {
		for _, seed := range []int64{1, 7, 42, 61, 170} {
			m, err := c.build(f, seed)
			if err != nil {
				t.Fatal(err)
			}
			var sd, worst float64
			for l, lin := range m.Linear {
				pl := PlanMatVec(p, lin.Out(), lin.In())
				norms := rowNorms(f, lin.W)
				if err := pl.CheckNoise(norms); err != nil {
					t.Fatalf("%s seed %d layer %d: %v", c.name, seed, l, err)
				}
				for _, vmat := range pl.noiseBounds(norms) {
					slot := (vmat + float64(4*p.N+2)) / flood
					sd += slot
					worst = max(worst, slot)
				}
			}
			t.Logf("%s seed %d: λ %.1f bits a slot, %.1f a pre-compute", c.name, seed, -math.Log2(worst), -math.Log2(sd))
			if -math.Log2(worst) < c.slotBits || -math.Log2(sd) < c.total {
				t.Errorf("%s seed %d: λ %.2f a slot, %.2f a pre-compute; the package doc states %.1f and %.1f",
					c.name, seed, -math.Log2(worst), -math.Log2(sd), c.slotBits, c.total)
			}
		}
	}
}

// TestCheckNoiseRefusesHeavyRows: a 256-wide row of weights at ±(p−1)/2
// has a matvec bound above the limit and is refused with its row, bound
// and limit named; a zero row passes, a norm so large its bound would
// overflow 64 bits is refused too, and so is a norm count other than Out.
func TestCheckNoiseRefusesHeavyRows(t *testing.T) {
	p := mustParams(DefaultN, field.P20)
	pl := PlanMatVec(p, 2, 256)
	heavy := uint64(256 * (field.P20 - 1) / 2)
	err := pl.CheckNoise([]uint64{0, heavy})
	if err == nil {
		t.Fatal("a row of weights at ±(p−1)/2 passed the noise check")
	}
	bound := pl.noiseBounds([]uint64{0, heavy})[1]
	for _, want := range []string{"row 1", fmt.Sprintf("%.0f", bound), fmt.Sprint(p.matvecNoiseLimit())} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if err := pl.CheckNoise([]uint64{0, 0}); err != nil {
		t.Errorf("zero weights refused: %v", err)
	}
	if err := pl.CheckNoise([]uint64{0, 1 << 62}); err == nil {
		t.Error("an overflowing bound passed the noise check")
	}
	if err := pl.CheckNoise([]uint64{0}); err == nil {
		t.Error("one norm for two rows passed the noise check")
	}
}

// rowNorms returns ‖W_r‖₁ of each row, its weights centered.
func rowNorms(f field.Field, w [][]uint64) []uint64 {
	norms := make([]uint64, len(w))
	for r, row := range w {
		for _, v := range row {
			norms[r] += uint64(max(f.ToInt64(v), -f.ToInt64(v)))
		}
	}
	return norms
}
