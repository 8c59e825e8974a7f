package main

import (
	"fmt"
	"math/rand"
	"time"

	"privinf/internal/bfv"
	"privinf/internal/boolcirc"
	"privinf/internal/delphi"
	"privinf/internal/garble"
	"privinf/internal/ot"
	"privinf/internal/transport"
)

// ladder is the kernel layers timed from outside: the benchmark calls each
// layer's public functions with the shapes and counts one CNN inference
// implies, and hangs every replayed kernel under the harness phase it
// belongs to. Per-inference timings are totals over the model's layers.
type ladder struct {
	baseOT, keygen, resume                             []time.Duration
	encrypt, matvec, decrypt, garbling, eval, ext, lin []time.Duration
	encryptCts, extOTs, relus, andGates, tableBytes    int
}

// replayLadder runs the kernels. rng supplies vectors and bits only; keys
// and labels come from crypto/rand, as in the served sessions.
func replayLadder(e *env, h *harnessResult, rng *rand.Rand, tr *tracer, sc scale) (*ladder, error) {
	art := e.artifacts[modelCNN]
	model := e.models[modelCNN]
	meta, params, f := art.Meta(), art.Params(), model.F
	width := f.Bits()
	sg := e.w.variant == delphi.ServerGarbler
	ld := &ladder{relus: meta.TotalReLUs()}

	timed := func(dst *[]time.Duration, parent int, name string, fn func() error) error {
		sp := tr.begin(parent, 0, name)
		t0 := time.Now()
		err := fn()
		*dst = append(*dst, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", name, err)
		}
		return nil
	}

	// Setup kernels: the 128 base OTs behind one IKNP endpoint pair, and
	// BFV keygen.
	var snd *ot.ExtSender
	var rcv *ot.ExtReceiver
	var sk bfv.SecretKey
	var pk bfv.PublicKey
	for i := 0; i < sc.setupReps; i++ {
		a, b := transport.Pipe()
		err := timed(&ld.baseOT, h.setupSpans[i], "ot.base", func() error {
			_, err := both(
				func() (err error) { snd, err = ot.NewExtSender(a, nil); return },
				func() (err error) { rcv, err = ot.NewExtReceiver(b, nil); return },
			)
			return err
		})
		if err != nil {
			return nil, err
		}
		timed(&ld.keygen, h.setupSpans[i], "bfv.keygen", func() error {
			sk, pk = bfv.KeyGen(params, nil)
			return nil
		})
	}
	sst, rst := snd.State(), rcv.State()
	for i := 0; i < sc.phaseReps; i++ {
		a, b := transport.Pipe()
		err := timed(&ld.resume, 0, "ot.resume", func() error {
			if _, err := ot.ResumeSender(a, sst, []byte{byte(i + 1)}); err != nil {
				return err
			}
			_, err := ot.ResumeReceiver(b, rst, []byte{byte(i + 1)})
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Shapes one inference implies.
	L := len(meta.Dims)
	plans := make([]bfv.MatVecPlan, L)
	weights := make([][][]bfv.Plaintext, L)
	encoder := bfv.NewEncoder(params)
	for l, d := range meta.Dims {
		plans[l] = bfv.PlanMatVec(params, d.Out, d.In)
		weights[l] = plans[l].EncodeMatrix(encoder, model.Linear[l].W)
		ld.encryptCts += plans[l].NumInputCts()
	}
	circuits := make([]*boolcirc.Circuit, meta.NumReLULayers())
	for l := range circuits {
		circuits[l] = boolcirc.BuildReLU(boolcirc.ReLUSpec{P: meta.P, Frac: meta.Shifts[l]})
		units := meta.Dims[l].Out
		ld.andGates += units * circuits[l].NumAND()
		ld.tableBytes += units * garble.TableBytes(circuits[l])
		// Server-Garbler moves the evaluator's two offline-known inputs by OT
		// offline; Client-Garbler moves the server's one share online.
		if sg {
			ld.extOTs += units * 2 * width
		} else {
			ld.extOTs += units * width
		}
	}
	randVec := func(n int) []uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = rng.Uint64() % meta.P
		}
		return v
	}
	enc := bfv.NewEncryptor(params, pk, nil)
	dec := bfv.NewDecryptor(params, sk)

	for i := 0; i < sc.phaseReps; i++ {
		offline, online := h.offlineSpans[i], h.onlineSpans[i]

		// HE: the client encrypts its masks, the server applies each layer
		// and subtracts its own mask, the client decrypts its share.
		rs := make([][]uint64, L)
		masks := make([][]uint64, L)
		for l, d := range meta.Dims {
			rs[l], masks[l] = randVec(d.In), randVec(d.Out)
		}
		cts := make([][]bfv.Ciphertext, L)
		timed(&ld.encrypt, offline, "bfv.encrypt", func() error {
			for l := range plans {
				cts[l] = plans[l].EncryptVector(enc, rs[l])
			}
			return nil
		})
		outs := make([][]bfv.Ciphertext, L)
		timed(&ld.matvec, offline, "bfv.matvec", func() error {
			for l, pl := range plans {
				outs[l] = pl.Apply(weights[l], cts[l])
				for oc := range outs[l] {
					bfv.SubPlainInto(&outs[l][oc], pl.MaskPlaintext(encoder, masks[l], oc))
				}
			}
			return nil
		})
		shares := make([][]uint64, L)
		timed(&ld.decrypt, offline, "bfv.decrypt", func() error {
			for l, pl := range plans {
				shares[l] = pl.ExtractResult(dec.DecryptCoeffsBatch(outs[l]))
			}
			return nil
		})
		for l := range plans {
			for r, got := range shares[l] {
				if want := f.Sub(f.DotProduct(model.Linear[l].W[r], rs[l]), masks[l][r]); got != want {
					return nil, fmt.Errorf("ladder bfv: layer %d row %d decrypts to %d, want %d", l, r, got, want)
				}
			}
		}

		// GC: garble every ReLU unit, then evaluate it on active labels.
		garbled := make([][]*garble.Garbled, len(circuits))
		timed(&ld.garbling, offline, "garble.garble", func() error {
			for l, c := range circuits {
				bases := make([]uint64, meta.Dims[l].Out)
				for u := range bases {
					bases[u] = gateBase(l, u)
				}
				garbled[l] = garble.GarbleBatch(c, nil, bases)
			}
			return nil
		})
		bits := make([][][]bool, len(circuits))
		labels := make([][][]garble.Label, len(circuits))
		for l, c := range circuits {
			bits[l] = make([][]bool, len(garbled[l]))
			labels[l] = make([][]garble.Label, len(garbled[l]))
			for u, g := range garbled[l] {
				in := make([]bool, c.NumInputs)
				lb := make([]garble.Label, c.NumInputs)
				for k := range in {
					in[k] = k == boolcirc.ConstOne || rng.Intn(2) == 1
					lb[k] = g.Encoding.EncodeInput(k, in[k])
				}
				bits[l][u], labels[l][u] = in, lb
			}
		}
		err := timed(&ld.eval, online, "garble.eval", func() error {
			for l, c := range circuits {
				for u, g := range garbled[l] {
					got, err := garble.Eval(c, g.Tables, g.DecodeBits, labels[l][u], gateBase(l, u))
					if err != nil {
						return err
					}
					want := c.Eval(bits[l][u])
					for k := range want {
						if got[k] != want[k] {
							return fmt.Errorf("layer %d unit %d output bit %d differs from plain evaluation", l, u, k)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		// OT extension: one batch per ReLU layer, offline under
		// Server-Garbler and online under Client-Garbler.
		perUnit, parent := width, online
		if sg {
			perUnit, parent = 2*width, offline
		}
		pairs := make([][][2]ot.Message, len(circuits))
		choices := make([][]bool, len(circuits))
		for l := range circuits {
			m := meta.Dims[l].Out * perUnit
			pairs[l] = make([][2]ot.Message, m)
			choices[l] = make([]bool, m)
			for j := range pairs[l] {
				rng.Read(pairs[l][j][0][:])
				rng.Read(pairs[l][j][1][:])
				choices[l][j] = rng.Intn(2) == 1
			}
		}
		err = timed(&ld.ext, parent, "ot.ext", func() error {
			for l := range circuits {
				var got []ot.Message
				_, err := both(
					func() error { return snd.Send(pairs[l]) },
					func() (err error) { got, err = rcv.Receive(choices[l]); return },
				)
				if err != nil {
					return err
				}
				for j, c := range choices[l] {
					want := pairs[l][j][0]
					if c {
						want = pairs[l][j][1]
					}
					if got[j] != want {
						return fmt.Errorf("layer %d OT %d delivered the wrong message", l, j)
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}

		// The server's online linear layers, in the clear on shares.
		timed(&ld.lin, online, "nn.matvec", func() error {
			for l, d := range meta.Dims {
				model.Linear[l].MatVec(f, rs[l][:d.In])
			}
			return nil
		})
	}
	return ld, nil
}

// gateBase spaces the hash tweaks of a model's ReLU units apart, as delphi
// does.
func gateBase(layer, unit int) uint64 { return uint64(layer)<<44 | uint64(unit)<<22 }

// transportProbe times the transport layer from outside on a loopback TCP
// pair: round trip of a small frame, and one-way bulk throughput.
func transportProbe() (rttUs, mbPerS float64, err error) {
	a, b, cleanup, err := transport.TCPPair()
	if err != nil {
		return 0, 0, err
	}
	defer cleanup()

	const pings = 200
	echoed := make(chan error, 1)
	go func() {
		for i := 0; i < pings; i++ {
			f, err := b.Recv()
			if err == nil {
				err = b.Send(f)
			}
			if err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	rtts := make([]float64, pings)
	ping := make([]byte, 16)
	for i := range rtts {
		t0 := time.Now()
		if err := a.Send(ping); err != nil {
			return 0, 0, err
		}
		if _, err := a.Recv(); err != nil {
			return 0, 0, err
		}
		rtts[i] = us(time.Since(t0))
	}
	if err := <-echoed; err != nil {
		return 0, 0, err
	}

	const frames, frameBytes = 64, 1 << 20 // a garbled ReLU layer is about this size
	received := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if _, err := b.Recv(); err != nil {
				received <- err
				return
			}
		}
		received <- nil
	}()
	payload := make([]byte, frameBytes)
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		if err := a.Send(payload); err != nil {
			return 0, 0, err
		}
	}
	if err := <-received; err != nil {
		return 0, 0, err
	}
	return median(rtts), frames * frameBytes / 1e6 / time.Since(t0).Seconds(), nil
}
