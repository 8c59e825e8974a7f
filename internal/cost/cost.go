// Package cost is the analytic end-to-end PI cost model: it composes the
// network architecture (nn), the measurement-derived constants (calib), the
// device models (device), and the wireless link (wireless) into
// per-inference latency, storage, communication and energy breakdowns for
// both protocol variants, with the paper's three optimizations (LPHE, WSA,
// Client-Garbler) and the future-scaling knobs of §6 as inputs.
package cost

import (
	"sort"

	"privinf/internal/calib"
	"privinf/internal/device"
	"privinf/internal/nn"
	"privinf/internal/wireless"
)

// Protocol selects the garbling role assignment.
type Protocol int

const (
	// ServerGarbler is the DELPHI baseline.
	ServerGarbler Protocol = iota
	// ClientGarbler is the paper's storage optimization (§5.1).
	ClientGarbler
)

func (p Protocol) String() string {
	if p == ClientGarbler {
		return "Client-Garbler"
	}
	return "Server-Garbler"
}

// GB is 10^9 bytes (storage-marketing units, as the paper uses).
const GB = 1e9

// Scenario fixes everything needed to cost one inference.
type Scenario struct {
	Arch    nn.Arch
	Proto   Protocol
	Client  device.Device
	Server  device.Device
	LinkBps float64 // total wireless bandwidth, bits/s
	// UploadFrac in (0,1); 0 means WSA-optimal (§5.3).
	UploadFrac float64
	// LPHE enables layer-parallel HE (§5.2); otherwise layers run
	// sequentially on one core, the DELPHI baseline.
	LPHE bool
	// HECores bounds the cores used by LPHE; 0 means one per HE job
	// (capped by the server's core count).
	HECores int

	// Future-scaling knobs (§6.2); zero values mean 1x.
	GCSpeedup  float64 // divides garbling and evaluation time
	HESpeedup  float64 // divides HE compute time
	BWFactor   float64 // multiplies link bandwidth
	ReLUFactor float64 // divides the ReLU count (PI-friendly networks)
}

// BaselineScenario returns the paper's Server-Garbler baseline (sequential
// HE, even wireless split) for an architecture: Atom client, EPYC server,
// 1 Gb/s.
func BaselineScenario(a nn.Arch) Scenario {
	return Scenario{
		Arch: a, Proto: ServerGarbler,
		Client: device.Atom, Server: device.EPYC,
		LinkBps: 1e9, UploadFrac: 0.5,
	}
}

// ProposedScenario returns the paper's optimized configuration —
// Client-Garbler with layer-parallel HE and WSA-optimal slot allocation
// (UploadFrac 0) — on the same devices and link.
func ProposedScenario(a nn.Arch) Scenario {
	return Scenario{
		Arch: a, Proto: ClientGarbler,
		Client: device.Atom, Server: device.EPYC,
		LinkBps: 1e9, LPHE: true,
	}
}

func (s Scenario) norm() Scenario {
	if s.GCSpeedup == 0 {
		s.GCSpeedup = 1
	}
	if s.HESpeedup == 0 {
		s.HESpeedup = 1
	}
	if s.BWFactor == 0 {
		s.BWFactor = 1
	}
	if s.ReLUFactor == 0 {
		s.ReLUFactor = 1
	}
	return s
}

// EffectiveReLUs returns the ReLU count after the ReLUFactor knob.
func (s Scenario) EffectiveReLUs() float64 {
	s = s.norm()
	return float64(s.Arch.TotalReLUs()) / s.ReLUFactor
}

// Breakdown is the per-inference latency decomposition in seconds.
type Breakdown struct {
	OffHE     float64 // homomorphic share generation (server)
	OffGarble float64 // circuit garbling (garbler device)
	OffComm   float64 // offline transfers (GCs, OT, HE ciphertexts)
	OnComm    float64 // online transfers (labels / OT / shares)
	OnEval    float64 // GC evaluation (evaluator device)
	OnSS      float64 // secret-share linear layers (server)
}

// Offline returns total offline latency.
func (b Breakdown) Offline() float64 { return b.OffHE + b.OffGarble + b.OffComm }

// Online returns total online latency.
func (b Breakdown) Online() float64 { return b.OnComm + b.OnEval + b.OnSS }

// Total returns end-to-end single-inference latency (offline incurred).
func (b Breakdown) Total() float64 { return b.Offline() + b.Online() }

// OfflineFraction returns the share of total latency incurred offline —
// the annotation on Figure 14's bars.
func (b Breakdown) OfflineFraction() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.Offline() / t
}

// CommProfiles returns the offline and online communication volumes from
// the client's perspective (Up = client to server).
func (s Scenario) CommProfiles() (off, on wireless.Profile) {
	s = s.norm()
	re := s.EffectiveReLUs()
	heUp, heDown := calib.HETrafficBytes(s.Arch)

	switch s.Proto {
	case ServerGarbler:
		off = wireless.Profile{
			UpBytes:   heUp + int64(re*calib.OfflineOTUpBytesPerReLU),
			DownBytes: heDown + int64(re*(calib.GCBytesPerReLU+calib.OfflineOTDownBytesPerReLU)),
		}
		on = wireless.Profile{
			UpBytes:   calib.InputShareBytes(s.Arch) + int64(re*calib.OnlineResultBytesPerReLU),
			DownBytes: int64(re * calib.OnlineLabelBytesPerReLU),
		}
	case ClientGarbler:
		off = wireless.Profile{
			UpBytes:   heUp + int64(re*(calib.GCBytesPerReLU+calib.GarblerKnownLabelBytesPerReLU)),
			DownBytes: heDown,
		}
		on = wireless.Profile{
			UpBytes:   calib.InputShareBytes(s.Arch) + int64(re*calib.OnlineOTPairBytesPerReLU),
			DownBytes: int64(re * calib.OnlineOTCorrBytesPerReLU),
		}
	}
	return off, on
}

// Link returns the wireless link for the scenario, resolving WSA.
func (s Scenario) Link() wireless.Link {
	s = s.norm()
	frac := s.UploadFrac
	if frac == 0 {
		off, on := s.CommProfiles()
		frac = wireless.OptimalUploadFrac(off.Add(on))
	}
	return wireless.Link{TotalBps: s.LinkBps * s.BWFactor, UploadFrac: frac}
}

// HESeconds returns the offline HE latency under the scenario's schedule.
func (s Scenario) HESeconds() float64 {
	s = s.norm()
	speed := s.Server.HESpeed * s.HESpeedup
	if !s.LPHE {
		return calib.HESumSeconds(s.Arch) / speed
	}
	cores := s.HECores
	jobs := calib.HELayerSeconds(s.Arch)
	if cores <= 0 || cores > s.Server.Cores {
		cores = s.Server.Cores
	}
	if cores > len(jobs) {
		cores = len(jobs)
	}
	return lptMakespan(jobs, cores) / speed
}

// lptMakespan schedules jobs on `cores` identical machines with the
// longest-processing-time heuristic and returns the makespan. With one core
// per job it degenerates to max(jobs) — the paper's LPHE bound.
func lptMakespan(jobs []float64, cores int) float64 {
	if cores < 1 {
		cores = 1
	}
	sorted := append([]float64(nil), jobs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	load := make([]float64, cores)
	for _, j := range sorted {
		min := 0
		for i := 1; i < cores; i++ {
			if load[i] < load[min] {
				min = i
			}
		}
		load[min] += j
	}
	var mk float64
	for _, l := range load {
		if l > mk {
			mk = l
		}
	}
	return mk
}

// Compute returns the full per-inference breakdown.
func (s Scenario) Compute() Breakdown {
	s = s.norm()
	re := int64(s.EffectiveReLUs())
	link := s.Link()
	off, on := s.CommProfiles()

	var b Breakdown
	b.OffHE = s.HESeconds()
	b.OffComm = link.TransferSeconds(off.UpBytes, off.DownBytes)
	b.OnComm = link.TransferSeconds(on.UpBytes, on.DownBytes)
	b.OnSS = calib.SSOnlineSeconds(s.Arch, s.Server.SSSpeed)

	switch s.Proto {
	case ServerGarbler:
		b.OffGarble = s.Server.GarbleSeconds(re, 0) / s.GCSpeedup
		b.OnEval = s.Client.EvalSeconds(re, 0) / s.GCSpeedup
	case ClientGarbler:
		b.OffGarble = s.Client.GarbleSeconds(re, 0) / s.GCSpeedup
		b.OnEval = s.Server.EvalSeconds(re, 0) / s.GCSpeedup
	}
	return b
}

// RLPBreakdown returns the single-pipeline costs under request-level
// parallelism: one core on each device per pre-processing task (§5.2's
// comparison). Garbling and HE run single-core; communication and online
// costs are unchanged.
func (s Scenario) RLPBreakdown() Breakdown {
	s = s.norm()
	b := s.Compute()
	re := int64(s.EffectiveReLUs())
	b.OffHE = calib.HESumSeconds(s.Arch) / (s.Server.HESpeed * s.HESpeedup)
	switch s.Proto {
	case ServerGarbler:
		b.OffGarble = s.Server.GarbleSeconds(re, 1) / s.GCSpeedup
		b.OnEval = s.Client.EvalSeconds(re, 0) / s.GCSpeedup
	case ClientGarbler:
		b.OffGarble = s.Client.GarbleSeconds(re, 1) / s.GCSpeedup
		b.OnEval = s.Server.EvalSeconds(re, 0) / s.GCSpeedup
	}
	return b
}
