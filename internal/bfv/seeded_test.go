package bfv

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"io"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"privinf/internal/ringq"
)

// TestSeededEncryptionDecrypts: a seeded upload, re-expanded from its seed
// as the server does, decrypts to its message with the fresh noise of e
// alone, and the same entropy gives the same upload bytes.
func TestSeededEncryptionDecrypts(t *testing.T) {
	p := testParams
	rng := rand.New(rand.NewSource(64))
	sk, _ := KeyGen(p, newSeeded(65))
	dec := NewDecryptor(p, sk)
	enc := NewSeededEncryptor(p, sk, newSeeded(66))
	for trial := 0; trial < 4; trial++ {
		m := randomMessage(rng, p, 1+rng.Intn(p.N))
		ct := enc.EncryptCoeffs(m).Ciphertext()
		got := dec.DecryptCoeffs(ct)
		want := append(append([]uint64(nil), m...), make([]uint64, p.N-len(m))...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: seeded ciphertext does not decrypt to its message", trial)
		}
		// Noise |e| ≤ 2 leaves all but two bits of the q/(2T) budget.
		if budget, full := dec.NoiseBudget(ct, m), bits.Len64(p.delta/2); budget < full-2 {
			t.Fatalf("trial %d: fresh seeded noise budget %d bits, want ≥ %d", trial, budget, full-2)
		}
	}

	m := randomMessage(rng, p, p.N)
	a, _ := NewSeededEncryptor(p, sk, newSeeded(67)).EncryptCoeffs(m).MarshalBinary()
	b, _ := NewSeededEncryptor(p, sk, newSeeded(67)).EncryptCoeffs(m).MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("the same entropy gave two different uploads")
	}
	if c, _ := NewSeededEncryptor(p, sk, newSeeded(68)).EncryptCoeffs(m).MarshalBinary(); bytes.Equal(a, c) {
		t.Fatal("different entropy gave the same upload")
	}
}

// wordSampler is the one-word-a-read sampler the batched reads replaced,
// kept as the reference they must equal on every stream.
type wordSampler struct{ src io.Reader }

func (s wordSampler) word() uint64 {
	var b [8]byte
	if _, err := io.ReadFull(s.src, b[:]); err != nil {
		panic(err)
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (s wordSampler) uniform(out []uint64) {
	for i := range out {
		for v := s.word(); ; v = s.word() {
			if v < ringq.Q {
				out[i] = v
				break
			}
		}
	}
}

func (s wordSampler) ternary(out []uint64) {
	var word uint64
	var remaining int
	for i := 0; i < len(out); {
		if remaining == 0 {
			word, remaining = s.word(), 32
		}
		v := word & 3
		word >>= 2
		remaining--
		if v < 3 {
			out[i] = []uint64{0, 1, ringq.Q - 1}[v]
			i++
		}
	}
}

func (s wordSampler) cbd(out []uint64) {
	for i := range out {
		bits := s.word()
		e := int(bits&1) - int(bits>>1&1) + int(bits>>2&1) - int(bits>>3&1)
		out[i] = (ringq.Q + uint64(e)) % ringq.Q
	}
}

// rejectingStream is a seeded stream in which every seventh word is ≥ q,
// so uniform rejects often enough to cross its first read.
type rejectingStream struct {
	rng *rand.Rand
	pos int
}

func (r *rejectingStream) Read(p []byte) (int, error) {
	for i := range p {
		if (r.pos/8)%7 == 3 {
			p[i] = 0xFF
		} else {
			p[i] = byte(r.rng.Intn(256))
		}
		r.pos++
	}
	return len(p), nil
}

// TestSamplerMatchesWordReads: reading each polynomial's words in bulk
// consumes the stream exactly as one read a word did, so every polynomial
// — and everything drawn after it — is bit-identical.
func TestSamplerMatchesWordReads(t *testing.T) {
	for _, n := range []int{1, 31, 33, 1024} {
		got, want := make([][]uint64, 6), make([][]uint64, 6)
		s := newSampler(&rejectingStream{rng: rand.New(rand.NewSource(int64(n)))})
		ref := wordSampler{&rejectingStream{rng: rand.New(rand.NewSource(int64(n)))}}
		for i := range got {
			got[i], want[i] = make([]uint64, n), make([]uint64, n)
			switch i % 3 {
			case 0:
				s.uniform(got[i])
				ref.uniform(want[i])
			case 1:
				s.ternary(got[i])
				ref.ternary(want[i])
			case 2:
				s.cbd(got[i])
				ref.cbd(want[i])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: batched sampler diverges from one-word reads", n)
		}
	}
}

// TestExpandSeedIsAESCTR pins the polynomial an upload's seed names, which
// the server must re-expand exactly as the client multiplied it by s: the
// words of AES-128 under the seed over counter blocks 0, 1, 2, … (big-endian,
// zero IV), each kept if below q.
func TestExpandSeedIsAESCTR(t *testing.T) {
	seed := [SeedSize]byte{1, 2, 3}
	a := make([]uint64, 64)
	expandSeed(a, seed)
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for ctr := uint64(0); len(want) < len(a); ctr++ {
		var in, out [aes.BlockSize]byte
		binary.BigEndian.PutUint64(in[8:], ctr)
		block.Encrypt(out[:], in[:])
		for _, v := range []uint64{binary.LittleEndian.Uint64(out[:8]), binary.LittleEndian.Uint64(out[8:])} {
			if v < ringq.Q {
				want = append(want, v)
			}
		}
	}
	if !reflect.DeepEqual(a, want[:len(a)]) {
		t.Fatal("expandSeed is not the AES-CTR keystream under the seed")
	}
}

// TestPackedCBDMatchesWordCBD: the packed sampler draws the coefficients
// the one-word-a-coefficient sampler draws from the same 4-bit groups —
// group i in word i/16 at bits 4(i%16) for the one, in the low bits of
// word i for the other, whose high bits it ignores — for counts on and off
// a whole word, every group value included.
func TestPackedCBDMatchesWordCBD(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, n := range []int{1, 15, 16, 17, 256, 4096} {
		groups := make([]uint64, n)
		for i := range groups {
			groups[i] = uint64(i % 16)
			if i >= 16 {
				groups[i] = uint64(rng.Intn(16))
			}
		}
		words, packed := make([]byte, 8*n), make([]byte, 8*((n+15)/16))
		for i, g := range groups {
			binary.LittleEndian.PutUint64(words[8*i:], g|rng.Uint64()<<4)
			w := binary.LittleEndian.Uint64(packed[8*(i/16):])
			binary.LittleEndian.PutUint64(packed[8*(i/16):], w|g<<(4*(i%16)))
		}
		got, want := make([]uint64, n), make([]uint64, n)
		newSampler(bytes.NewReader(packed)).cbdPacked(got)
		wordSampler{bytes.NewReader(words)}.cbd(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: packed coefficients differ from one-word ones", n)
		}
	}
}
