package delphi

import (
	"fmt"

	"privinf/internal/bin"
	"privinf/internal/boolcirc"
)

// Wire encodings for protocol messages: field vectors as 8-byte words,
// labels as raw 16-byte blocks, bit vectors packed 8 per byte.

// sendVec ships a field vector.
func (p *party) sendVec(v []uint64) error {
	w := bin.Writer{Buf: make([]byte, 0, 8*len(v))}
	w.U64s(v)
	return p.conn.Send(w.Buf)
}

// recvVec receives a field vector of exactly want words; want is the
// public layer shape, never a number the peer chose.
func (p *party) recvVec(want int) ([]uint64, error) {
	raw, err := p.conn.Recv()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, want)
	r := bin.NewReader(raw)
	r.U64s(out)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("delphi: vector payload %d bytes, want %d: %w", len(raw), 8*want, err)
	}
	return out, nil
}

func encodeBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return out
}

func decodeBits(data []byte, want int) ([]bool, error) {
	if err := checkBits(data, want); err != nil {
		return nil, err
	}
	out := make([]bool, want)
	for i := range out {
		out[i] = data[i/8]>>(uint(i)%8)&1 == 1
	}
	return out, nil
}

// checkBits accepts data only as encodeBits' packing of want bits: the
// exact length and every padding bit clear, so each bit vector has one
// encoding.
func checkBits(data []byte, want int) error {
	if len(data) != (want+7)/8 {
		return fmt.Errorf("delphi: bit payload %d bytes, want %d", len(data), (want+7)/8)
	}
	if want%8 != 0 && data[len(data)-1]>>(want%8) != 0 {
		return fmt.Errorf("delphi: bit payload has nonzero padding")
	}
	return nil
}

// gateBase returns the hash-tweak base for a ReLU unit, identical on both
// parties; the garbling adds each AND gate's table index and that plus
// one. The tweaks so made are unique within one pre-compute's hash key
// (hashKey), with bit 63 clear, as long as a circuit has fewer than
// maxTweaks/2 ANDs (derive), a ReLU layer fewer than maxUnits units and a
// model fewer than maxReLULayers ReLU layers (ModelMeta.Validate).
func gateBase(layer, unit int) uint64 {
	return uint64(layer)<<44 | uint64(unit)<<22
}

const maxTweaks, maxUnits, maxReLULayers = 1 << 22, 1 << 22, 1 << 19

// valueBits returns the little-endian width-bit decomposition of each
// element of v, concatenated — the OT choice bits for v's labels.
func valueBits(v []uint64, width int) []bool {
	out := make([]bool, 0, len(v)*width)
	for _, x := range v {
		for k := 0; k < width; k++ {
			out = append(out, x>>uint(k)&1 == 1)
		}
	}
	return out
}

// bitsToValues is valueBits' inverse.
func bitsToValues(bits []bool, width int) []uint64 {
	out := make([]uint64, len(bits)/width)
	for u := range out {
		out[u] = boolcirc.UnpackBits(bits[u*width : (u+1)*width])
	}
	return out
}
