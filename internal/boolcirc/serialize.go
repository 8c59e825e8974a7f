package boolcirc

import (
	"fmt"

	"privinf/internal/bin"
)

// Binary serialization for circuits, used by model-artifact persistence:
// built ReLU circuits are part of the on-disk SharedModel format, so a
// server restart (or a registry reload after eviction) skips the circuit
// build. The layout is little-endian: a fixed header (NumInputs, NumWires,
// gate count, output count), then gates as (op, a, b, out) words, then the
// output wire indices. Decoding revalidates the topology — wire indices in
// range, gates in topological order — so a corrupted file fails cleanly
// instead of producing a circuit that panics mid-evaluation.

const (
	circuitHeaderBytes = 4 * 8
	gateBytes          = 4 * 8
)

// MarshalBinary encodes the circuit.
func (c *Circuit) MarshalBinary() ([]byte, error) {
	w := bin.Writer{Buf: make([]byte, 0, circuitHeaderBytes+gateBytes*len(c.Gates)+8*len(c.Outputs))}
	w.U64(uint64(c.NumInputs))
	w.U64(uint64(c.NumWires))
	w.U64(uint64(len(c.Gates)))
	w.U64(uint64(len(c.Outputs)))
	for _, g := range c.Gates {
		w.U64(uint64(g.Op))
		w.U64(uint64(g.A))
		w.U64(uint64(g.B))
		w.U64(uint64(g.Out))
	}
	for _, o := range c.Outputs {
		w.U64(uint64(o))
	}
	return w.Buf, nil
}

// UnmarshalBinary decodes a circuit produced by MarshalBinary, validating
// the topology.
func (c *Circuit) UnmarshalBinary(data []byte) error {
	r := bin.NewReader(data)
	numInputs := int(r.U64())
	numWires := int(r.U64())
	// Both counts are bounded by what the payload can still carry as they
	// are read, so a wild header cannot overflow the size arithmetic below
	// or reach an allocation.
	numGates := r.Count(gateBytes)
	numOutputs := r.Count(8)
	if err := r.Err(); err != nil {
		return fmt.Errorf("boolcirc: circuit header: %w", err)
	}
	if numInputs < 1 || numWires < numInputs || numWires != numInputs+numGates {
		return fmt.Errorf("boolcirc: %d wires for %d inputs and %d gates", numWires, numInputs, numGates)
	}
	if want := gateBytes*numGates + 8*numOutputs; r.Remaining() != want {
		return fmt.Errorf("boolcirc: circuit body %d bytes, want %d", r.Remaining(), want)
	}
	var gates []Gate
	if numGates > 0 {
		gates = make([]Gate, numGates)
	}
	for i := range gates {
		op := r.U64() // checked at full width: Op is narrower than the word
		if op != uint64(XOR) && op != uint64(AND) {
			return fmt.Errorf("boolcirc: gate %d has unknown op %d", i, op)
		}
		g := Gate{Op: Op(op), A: int(r.U64()), B: int(r.U64()), Out: int(r.U64())}
		// Gates are emitted in topological order with dense output wires:
		// gate i writes wire numInputs+i and may read any earlier wire.
		if g.Out != numInputs+i {
			return fmt.Errorf("boolcirc: gate %d writes wire %d, want %d", i, g.Out, numInputs+i)
		}
		if g.A < 0 || g.A >= g.Out || g.B < 0 || g.B >= g.Out {
			return fmt.Errorf("boolcirc: gate %d reads wire (%d, %d) at or past its output %d", i, g.A, g.B, g.Out)
		}
		gates[i] = g
	}
	var outputs []int
	if numOutputs > 0 {
		outputs = make([]int, numOutputs)
	}
	for i := range outputs {
		w := int(r.U64())
		if w < 0 || w >= numWires {
			return fmt.Errorf("boolcirc: output %d references wire %d of %d", i, w, numWires)
		}
		outputs[i] = w
	}
	c.NumInputs = numInputs
	c.NumWires = numWires
	c.Gates = gates
	c.Outputs = outputs
	return nil
}
