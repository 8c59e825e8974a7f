package cost

import (
	"math"
	"testing"

	"privinf/internal/calib"
	"privinf/internal/device"
	"privinf/internal/nn"
	"privinf/internal/wireless"
)

func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s: got %v, want 0", name, got)
		}
		return
	}
	if rel := math.Abs(got-want) / math.Abs(want); rel > relTol {
		t.Errorf("%s: got %.4g, want %.4g (rel err %.1f%% > %.1f%%)",
			name, got, want, rel*100, relTol*100)
	}
}

// allArchs is every (network, dataset) pair the paper characterizes.
func allArchs(t *testing.T) []nn.Arch {
	t.Helper()
	var out []nn.Arch
	for _, d := range nn.Datasets {
		for _, n := range nn.NetworkNames {
			a, err := nn.NewArch(n, d)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, a)
		}
	}
	return out
}

func r18Tiny() nn.Arch { return nn.NewResNet18(nn.TinyImageNet) }

func baseSG() Scenario { return BaselineScenario(r18Tiny()) }

func proposedCG() Scenario { return ProposedScenario(r18Tiny()) }

// TestSimulatorValidation mirrors §3's validation against DELPHI: the
// modeled compute legs must match the paper's measurements (which the
// constants are derived from) to high precision.
func TestSimulatorValidation(t *testing.T) {
	b := baseSG().Compute()
	within(t, "GC.Garble (server)", b.OffGarble, 25.1, 0.01)
	within(t, "GC.Eval (Atom)", b.OnEval, 200.0, 0.01)
	within(t, "HE.Eval sequential", b.OffHE, 1065.6, 0.01)
	within(t, "SS.Eval", b.OnSS, 0.61, 0.01)

	lphe := baseSG()
	lphe.LPHE = true
	within(t, "HE.Eval LPHE", lphe.Compute().OffHE, 141.2, 0.05)
}

// TestTable1Aggregates checks the Server-Garbler totals of Table 1 at
// 1 Gb/s even split. Communication is message-modeled rather than measured,
// so the tolerance is wider.
func TestTable1Aggregates(t *testing.T) {
	b := baseSG().Compute()
	within(t, "offline total", b.Offline(), 1809, 0.06)
	within(t, "online total", b.Online(), 243, 0.10)
	within(t, "grand total", b.Total(), 2052, 0.06)
	within(t, "offline comm", b.OffComm, 704, 0.15)
	within(t, "online comm", b.OnComm, 42.5, 0.50)
}

// TestLPHESpeedups reproduces §5.2: ResNet-18/Tiny drops from 17.76 min to
// 2.35 min, and the mean speedup across all six pairs is 9.7x.
func TestLPHESpeedups(t *testing.T) {
	within(t, "R18/Tiny sequential", calib.HESumSeconds(r18Tiny()), 17.76*60, 0.01)
	within(t, "R18/Tiny LPHE", calib.HEMaxSeconds(r18Tiny()), 2.35*60, 0.05)

	var sum float64
	var n int
	for _, d := range []nn.Dataset{nn.CIFAR100, nn.TinyImageNet} {
		for _, name := range nn.NetworkNames {
			a, err := nn.NewArch(name, d)
			if err != nil {
				t.Fatal(err)
			}
			sum += calib.HESumSeconds(a) / calib.HEMaxSeconds(a)
			n++
		}
	}
	within(t, "mean LPHE speedup", sum/float64(n), 9.7, 0.05)
}

// TestWSAOptima reproduces §5.3: the optimal split is ~802 Mb/s download
// for Server-Garbler and ~835 Mb/s upload for Client-Garbler.
func TestWSAOptima(t *testing.T) {
	sgOff, sgOn := baseSG().CommProfiles()
	sgFrac := wireless.OptimalUploadFrac(sgOff.Add(sgOn))
	within(t, "SG optimal download", (1-sgFrac)*1000, 802, 0.02)

	cg := proposedCG()
	cgOff, cgOn := cg.CommProfiles()
	cgFrac := wireless.OptimalUploadFrac(cgOff.Add(cgOn))
	within(t, "CG optimal upload", cgFrac*1000, 835, 0.025)

	// WSA at the optimum beats the even split by a meaningful margin
	// (the paper reports up to 35%).
	even := wireless.Link{TotalBps: 1e9, UploadFrac: 0.5}
	opt := wireless.Link{TotalBps: 1e9, UploadFrac: cgFrac}
	p := cgOff.Add(cgOn)
	evenT := even.TransferSeconds(p.UpBytes, p.DownBytes)
	optT := opt.TransferSeconds(p.UpBytes, p.DownBytes)
	if gain := 1 - optT/evenT; gain < 0.25 || gain > 0.45 {
		t.Errorf("WSA gain %.1f%%, expected 25-45%%", gain*100)
	}
}

// TestProposedTotals reproduces §5.2/§6.1: the proposed protocol
// (Client-Garbler + LPHE + WSA) costs ~1052 s end-to-end for a single
// R18/Tiny inference, with offline ~936-940 s.
func TestProposedTotals(t *testing.T) {
	b := proposedCG().Compute()
	within(t, "CG total", b.Total(), 1052, 0.02)
	within(t, "CG offline", b.Offline(), 939, 0.02)
	within(t, "CG garble (Atom)", b.OffGarble, 382.6, 0.01)
	within(t, "CG eval (EPYC)", b.OnEval, 11.1, 0.01)
	within(t, "CG online comm", b.OnComm, 101, 0.08)
}

// TestRLPSingleCore reproduces §5.2's RLP numbers: 3126 s end-to-end on a
// single pre-processing core at 8 GB storage.
func TestRLPSingleCore(t *testing.T) {
	b := proposedCG().RLPBreakdown()
	within(t, "RLP offline", b.Offline(), 3013, 0.02)
	within(t, "RLP total", b.Total(), 3126, 0.02)
}

// TestBufferCapacities reproduces the pre-compute buffer sizes of §5.2:
// 0/1/3/7/17 at 8/16/32/64/140 GB for the proposed protocol, and the
// paper's observation that 41 GB of GCs deny Server-Garbler any buffering
// below 64 GB.
func TestBufferCapacities(t *testing.T) {
	cg := proposedCG()
	want := map[int64]int{8: 0, 16: 1, 32: 3, 64: 7, 140: 17}
	for gb, slots := range want {
		if got := cg.BufferCapacity(gb*GB, 0); got != slots {
			t.Errorf("CG at %d GB: %d slots, want %d", gb, got, slots)
		}
	}
	sg := baseSG()
	if got := sg.BufferCapacity(16*GB, 0); got != 0 {
		t.Errorf("SG at 16 GB: %d slots, want 0", got)
	}
	if got := sg.BufferCapacity(32*GB, 0); got != 0 {
		t.Errorf("SG at 32 GB: %d slots, want 0", got)
	}
	if got := sg.BufferCapacity(128*GB, 0); got < 2 {
		t.Errorf("SG at 128 GB: %d slots, want >= 2", got)
	}
	// A 10 TB server is never the binding constraint.
	if a, b := cg.BufferCapacity(64*GB, 10000*GB), cg.BufferCapacity(64*GB, 0); a != b {
		t.Errorf("10 TB server should not bind: %d != %d", a, b)
	}
}

// TestFigure3Storage checks the headline storage bars (GB).
func TestFigure3Storage(t *testing.T) {
	want := map[string]float64{
		"VGG-16/CIFAR-100":       5,
		"ResNet-32/CIFAR-100":    6,
		"ResNet-18/CIFAR-100":    10,
		"VGG-16/TinyImageNet":    20,
		"ResNet-32/TinyImageNet": 22,
		"ResNet-18/TinyImageNet": 41,
		"VGG-16/ImageNet":        247,
		"ResNet-32/ImageNet":     271,
		"ResNet-18/ImageNet":     498,
	}
	for _, a := range allArchs(t) {
		within(t, "storage "+a.String(), Figure3ClientStorageGB(a), want[a.String()], 0.07)
	}
}

// TestFigure8ClientGarblerStorage: the 5x average client-storage reduction.
func TestFigure8ClientGarblerStorage(t *testing.T) {
	sg, cg := Figure8StorageGB(r18Tiny())
	within(t, "SG client storage", sg, 41, 0.02)
	within(t, "CG client storage", cg, 8, 0.02)
	within(t, "reduction", sg/cg, 5.2, 0.02)
}

// TestEnergyRatio: garbling costs the client 1.8x the energy of evaluating
// (§5.1).
func TestEnergyRatio(t *testing.T) {
	sgE := baseSG().ClientEnergyJoules()
	cgE := proposedCG().ClientEnergyJoules()
	within(t, "energy ratio", cgE/sgE, 1.864, 0.01)
}

// TestFigure14Waterfall walks the future-optimization chain and checks each
// step lands near the paper's bar and decreases monotonically:
// SG* 930, CG 1052, GC-FASE 662, GC-100x 645, HE-1000x 492, BW-10x 54,
// fewer-ReLUs 6.
func TestFigure14Waterfall(t *testing.T) {
	sgStar := baseSG()
	sgStar.LPHE = true
	sgStar.UploadFrac = 0 // WSA
	within(t, "SG* total", sgStar.Compute().Total(), 930, 0.06)

	cg := proposedCG()
	steps := []struct {
		name   string
		mut    func(*Scenario)
		want   float64
		relTol float64
	}{
		{"GC FASE 19x", func(s *Scenario) { s.GCSpeedup = 19 }, 662, 0.06},
		{"GC 100x", func(s *Scenario) { s.GCSpeedup = 100 }, 645, 0.06},
		{"HE 1000x", func(s *Scenario) { s.GCSpeedup = 100; s.HESpeedup = 1000 }, 492, 0.08},
		{"BW 10x", func(s *Scenario) { s.GCSpeedup = 100; s.HESpeedup = 1000; s.BWFactor = 10 }, 54, 0.12},
		{"Fewer ReLUs", func(s *Scenario) {
			s.GCSpeedup = 100
			s.HESpeedup = 1000
			s.BWFactor = 10
			s.ReLUFactor = 10
		}, 6, 0.25},
	}
	prev := cg.Compute().Total()
	for _, st := range steps {
		s := cg
		st.mut(&s)
		got := s.Compute().Total()
		within(t, st.name, got, st.want, st.relTol)
		if got >= prev {
			t.Errorf("%s: %f did not improve on previous %f", st.name, got, prev)
		}
		prev = got
	}
}

// TestOfflineFractions spot-checks the Figure 14 annotations (fraction of
// latency incurred offline): 76% for SG*, 89% for CG.
func TestOfflineFractions(t *testing.T) {
	sgStar := baseSG()
	sgStar.LPHE = true
	sgStar.UploadFrac = 0
	within(t, "SG* offline frac", sgStar.Compute().OfflineFraction(), 0.76, 0.05)
	within(t, "CG offline frac", proposedCG().Compute().OfflineFraction(), 0.89, 0.03)
}

// TestCommunicationBandwidthSweep reproduces Figure 5's shape: at even
// split, download dominates and latency shrinks ~linearly with bandwidth.
func TestCommunicationBandwidthSweep(t *testing.T) {
	s := baseSG()
	off, on := s.CommProfiles()
	p := off.Add(on)
	if frac := float64(p.DownBytes) / float64(p.UpBytes+p.DownBytes); frac < 0.80 {
		t.Errorf("download share %.2f, want > 0.80 (paper: 81.5%%+)", frac)
	}
	prev := math.Inf(1)
	for _, mbps := range []float64{150, 350, 550, 750, 950} {
		l := wireless.Link{TotalBps: mbps * 1e6, UploadFrac: 0.5}
		tt := l.TransferSeconds(p.UpBytes, p.DownBytes)
		if tt >= prev {
			t.Errorf("latency must fall with bandwidth: %f at %.0f Mbps", tt, mbps)
		}
		prev = tt
	}
	// ~11 minutes at ~1 Gb/s even split (§4.1.3).
	l := wireless.Link{TotalBps: 1e9, UploadFrac: 0.5}
	within(t, "total comm at 1 Gb/s", l.TransferSeconds(p.UpBytes, p.DownBytes)/60, 11, 0.30)
}

// TestSensitivityDevices: faster clients cut CG garbling per §5.5
// (382.6 -> 107.2 -> 53.8 seconds).
func TestSensitivityDevices(t *testing.T) {
	for _, tc := range []struct {
		dev  device.Device
		want float64
	}{
		{device.Atom, 382.6},
		{device.I5, 107.2},
		{device.I5x2, 53.8},
	} {
		s := proposedCG()
		s.Client = tc.dev
		within(t, "garble on "+tc.dev.Name, s.Compute().OffGarble, tc.want, 0.01)
	}
	// 4x server cuts server-side eval and HE.
	s := proposedCG()
	s.Server = device.ScaleServer(device.EPYC, 4)
	b := s.Compute()
	within(t, "eval on 4x server", b.OnEval, 11.1/4, 0.01)
	within(t, "LPHE on 4x server", b.OffHE, calib.HEMaxSeconds(r18Tiny())/4, 0.001)
}

func TestLPTMakespan(t *testing.T) {
	jobs := []float64{5, 4, 3, 3, 3}
	if got := lptMakespan(jobs, 1); got != 18 {
		t.Errorf("1 core: %f, want 18", got)
	}
	if got := lptMakespan(jobs, 5); got != 5 {
		t.Errorf("5 cores: %f, want 5 (max job)", got)
	}
	if got := lptMakespan(jobs, 2); got != 10 {
		// LPT is a 4/3-approximation; on this instance it yields 10
		// (optimal is 9), which is fine for scheduling estimates.
		t.Errorf("2 cores: %f, want 10", got)
	}
}
