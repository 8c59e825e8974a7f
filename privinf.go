// Package privinf is an end-to-end system for hybrid private inference
// (PI), reproducing "Characterizing and Optimizing End-to-End Systems for
// Private Inference" (ASPLOS 2023).
//
// The library has two halves, mirroring the paper:
//
//   - A working cryptographic PI stack, built from scratch on the Go
//     standard library: BFV-style homomorphic encryption, half-gates
//     garbled circuits, IKNP oblivious transfer, and additive secret
//     sharing, composed into the DELPHI-style protocol in both the baseline
//     Server-Garbler and the optimized Client-Garbler role assignment.
//     RunLocalInference executes a real private inference, bit-exact with
//     plaintext evaluation.
//
//   - A characterization and simulation toolkit: an analytic cost model
//     (storage, compute, communication, energy) calibrated to the paper's
//     measurements, a TDD wireless model with Wireless Slot Allocation, the
//     layer-parallel-HE and request-level-parallel offline schedules, and a
//     deterministic discrete-event simulator for inference arrival rates.
//     Characterize and SimulateWorkload expose these; the cmd/ tools and
//     the bench harness regenerate every table and figure of the paper.
package privinf

import (
	"io"

	"privinf/internal/bfv"
	"privinf/internal/cost"
	"privinf/internal/delphi"
	"privinf/internal/device"
	"privinf/internal/field"
	"privinf/internal/nn"
	"privinf/internal/sim"
)

// Re-exported domain types. Aliases keep the public surface small while the
// implementation lives in focused internal packages.
type (
	// Model is an executable quantized network in the lowered form the
	// protocol evaluates (alternating dense linear layers and ReLUs).
	Model = nn.Lowered
	// Arch is a network architecture descriptor (shapes only, no weights).
	Arch = nn.Arch
	// Dataset describes an input geometry (CIFAR-100, TinyImageNet, ...).
	Dataset = nn.Dataset
	// Scenario parameterizes the analytic cost model.
	Scenario = cost.Scenario
	// Breakdown is a per-inference latency decomposition.
	Breakdown = cost.Breakdown
	// WorkloadConfig parameterizes an arrival-rate simulation: one client
	// (Figures 7, 10, 12, 13) or, with Clients set, several small-storage
	// clients sharing one server (§5.2's discussion).
	WorkloadConfig = sim.Config
	// WorkloadStats summarizes a workload simulation.
	WorkloadStats = sim.Stats
	// Device models a client or server machine.
	Device = device.Device
	// Variant selects which party garbles (ServerGarbler or ClientGarbler).
	Variant = delphi.Variant
	// SharedModel is the immutable server-side model artifact — matvec
	// plans, NTT-domain weight plaintexts, built ReLU circuits — encoded
	// once and shared by any number of sessions or engines. SizeBytes
	// reports its resident footprint, the unit a serving engine's model
	// registry budgets when deciding LRU artifact eviction (see
	// serve.NewRegistry).
	SharedModel = delphi.SharedModel
)

// PrepareModel builds the shared model artifact for a model under the
// protocol's default HE parameters. Encoding the weights is the dominant
// per-model cost; do it once and hand the artifact to a registry
// (serve.Registry.RegisterArtifact) that any number of engines and
// sessions serve from without re-paying it.
func PrepareModel(model *Model) (*SharedModel, error) {
	params, err := bfv.NewParams(bfv.DefaultN, model.F.P())
	if err != nil {
		return nil, err
	}
	return delphi.NewSharedModel(params, model)
}

// Protocol variants.
const (
	// ServerGarbler is the DELPHI baseline: the server garbles, the client
	// stores and evaluates.
	ServerGarbler = delphi.ServerGarbler
	// ClientGarbler is the paper's optimized protocol: the client garbles,
	// the server stores and evaluates.
	ClientGarbler = delphi.ClientGarbler
)

// Standard devices from the paper's methodology.
var (
	AtomClient = device.Atom
	I5Client   = device.I5
	EPYCServer = device.EPYC
)

// Evaluation datasets.
var (
	CIFAR100     = nn.CIFAR100
	TinyImageNet = nn.TinyImageNet
	ImageNet     = nn.ImageNet
)

// NewArchitecture returns the architecture descriptor for one of the
// paper's networks ("ResNet-18", "ResNet-32", "VGG-16") on a dataset.
func NewArchitecture(name string, d Dataset) (Arch, error) {
	return nn.NewArch(name, d)
}

// NewDemoCNN builds a small runnable quantized CNN (8x8 input, two conv
// stages, 10 classes) suitable for real-crypto private inference.
// Deterministic for a seed.
func NewDemoCNN(seed int64) (*Model, error) {
	return nn.DemoCNN(field.New(field.P20), seed)
}

// NewDemoMLP builds a small runnable quantized MLP (64-32-16-10).
func NewDemoMLP(seed int64) (*Model, error) {
	return nn.DemoMLP(field.New(field.P20), seed)
}

// InferenceResult reports one real-crypto private inference.
type InferenceResult struct {
	// Output holds the network's output scores (field elements; use
	// Model.F.ToInt64 for signed values).
	Output []uint64
	// Predicted is the argmax class.
	Predicted int
	// Verified is true when the private output matched plaintext
	// inference bit-for-bit.
	Verified bool

	ClientOffline delphi.OfflineReport
	ServerOffline delphi.OfflineReport
	ClientOnline  delphi.OnlineReport
	ServerOnline  delphi.OnlineReport
}

// RunLocalInference executes a full private inference with real
// cryptography — HE share generation, circuit garbling, oblivious
// transfers, garbled evaluation — between an in-process client and server
// pair, and verifies the result against plaintext inference. entropy may be
// nil (crypto/rand).
func RunLocalInference(model *Model, variant delphi.Variant, x []uint64, entropy io.Reader) (*InferenceResult, error) {
	eng, err := NewLocalEngine(LocalEngineConfig{
		Models:  map[string]*Model{"default": model},
		Variant: variant,
		Entropy: entropy,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	s, err := eng.Connect("")
	if err != nil {
		return nil, err
	}
	defer s.Close()
	cliOff, srvOff, err := s.Precompute()
	if err != nil {
		return nil, err
	}
	res, err := s.Infer(x)
	if res != nil {
		res.ClientOffline, res.ServerOffline = cliOff, srvOff
	}
	return res, err
}

// Quantize maps a real value in [-1, 1] to a field element at the model's
// fixed-point scale, for building protocol inputs.
func Quantize(model *Model, v float64) uint64 {
	return field.FixedPoint{F: model.F, Frac: model.Frac}.Encode(v)
}

// Dequantize maps a model output back to a real value at the model's
// input scale. Note the network's own scale grows through layers (pooling
// folds into truncation), so relative comparisons (argmax) are what matter.
func Dequantize(model *Model, a uint64) float64 {
	return field.FixedPoint{F: model.F, Frac: model.Frac}.Decode(a)
}

// Characterize computes the analytic per-inference cost breakdown for a
// scenario (the paper's Figures 4, 5, 14 and Table 1 derive from this).
func Characterize(s Scenario) Breakdown { return s.Compute() }

// SimulateWorkload runs `runs` independent 24-hour arrival-rate
// simulations and returns the averaged statistics (Figures 7, 10, 12, 13,
// and the shared server of §5.2 when cfg.Clients > 1).
func SimulateWorkload(cfg WorkloadConfig, runs int) (WorkloadStats, error) {
	return sim.RunMany(cfg, runs)
}

// ProposedScenario returns the paper's optimized configuration —
// Client-Garbler with layer-parallel HE and WSA-optimal slot allocation —
// for an architecture at 1 Gb/s.
func ProposedScenario(a Arch) Scenario { return cost.ProposedScenario(a) }

// BaselineScenario returns the Server-Garbler baseline (sequential HE,
// even wireless split) for an architecture at 1 Gb/s.
func BaselineScenario(a Arch) Scenario { return cost.BaselineScenario(a) }
