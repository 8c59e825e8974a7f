package calib

import (
	"math"
	"testing"

	"privinf/internal/nn"
)

func approx(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s: got %.4g, want %.4g", name, got, want)
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

func TestPerReLUConstantsDerivation(t *testing.T) {
	// Machine-level times for R18/Tiny must reconstruct the paper's
	// measurements exactly: per-core seconds x ReLUs / cores.
	re := 2228224.0
	approx(t, "garble EPYC", GarbleSecPerReLUCoreEPYC*re/32, 25.1, 1e-9)
	approx(t, "garble Atom", GarbleSecPerReLUCoreAtom*re/4, 382.6, 1e-9)
	approx(t, "garble i5", GarbleSecPerReLUCoreI5*re/4, 107.2, 1e-9)
	approx(t, "eval EPYC", EvalSecPerReLUCoreEPYC*re/32, 11.1, 1e-9)
	approx(t, "eval Atom", EvalSecPerReLUCoreAtom*re/4, 200.0, 1e-9)
}

func TestGCStorageNumbers(t *testing.T) {
	a := nn.NewResNet18(nn.TinyImageNet)
	approx(t, "GC storage", float64(GCStorageBytes(a)), 41.5e9, 0.01)
	approx(t, "encoding storage", float64(EncodingStorageBytes(a)), 8.0e9, 0.01)
}

func TestHESumIsFitted(t *testing.T) {
	approx(t, "R18/Tiny HE sum", HESumSeconds(nn.NewResNet18(nn.TinyImageNet)), 1065.6, 1e-6)
}

func TestHELayerJobsAlignWithArch(t *testing.T) {
	for _, a := range allArchs(t) {
		units := HELayerUnits(a)
		if len(units) != a.NumLinear() {
			t.Errorf("%s: %d HE cost entries for %d linear jobs", a, len(units), a.NumLinear())
		}
		for i, u := range units {
			if u <= 0 {
				t.Errorf("%s: job %d has non-positive cost %f", a, i, u)
			}
		}
	}
}

func TestHEMaxLeqSum(t *testing.T) {
	for _, a := range allArchs(t) {
		if HEMaxSeconds(a) > HESumSeconds(a) {
			t.Errorf("%s: max layer exceeds sum", a)
		}
	}
}

func TestHETrafficScalesWithResolution(t *testing.T) {
	upC, downC := HETrafficBytes(nn.NewResNet18(nn.CIFAR100))
	upT, downT := HETrafficBytes(nn.NewResNet18(nn.TinyImageNet))
	if upT <= upC || downT <= downC {
		t.Errorf("HE traffic must grow with resolution: up %d->%d down %d->%d", upC, upT, downC, downT)
	}
	// Roughly 4x for 4x pixels (ceil effects allowed).
	if r := float64(upT) / float64(upC); r < 3 || r > 5 {
		t.Errorf("up traffic ratio %f, want ~4", r)
	}
}

func TestHETrafficSmallRelativeToGC(t *testing.T) {
	// §4.1.3: GC traffic dominates; HE ciphertexts are tens of MB.
	a := nn.NewResNet18(nn.TinyImageNet)
	up, down := HETrafficBytes(a)
	if up+down > int64(0.01*float64(GCStorageBytes(a))) {
		t.Errorf("HE traffic %d B should be <1%% of GC bytes %d", up+down, GCStorageBytes(a))
	}
}

func TestSSOnlineSecondsScaling(t *testing.T) {
	a := nn.NewResNet18(nn.TinyImageNet)
	approx(t, "SS R18/Tiny", SSOnlineSeconds(a, 1), 0.61, 1e-9)
	approx(t, "SS on 2x server", SSOnlineSeconds(a, 2), 0.305, 1e-9)
}

func TestInputShareBytes(t *testing.T) {
	a := nn.NewResNet18(nn.TinyImageNet)
	// 3 x 64 x 64 field elements at 8 B.
	if got := InputShareBytes(a); got != 3*64*64*8 {
		t.Errorf("input share bytes %d, want %d", got, 3*64*64*8)
	}
}

func TestEnergyConstants(t *testing.T) {
	approx(t, "garble J/10k", GarbleJoulesPerReLU*1e4, 2.33, 1e-9)
	approx(t, "eval J/10k", EvalJoulesPerReLU*1e4, 1.25, 1e-9)
}

func TestCommConstants(t *testing.T) {
	if OnlineLabelBytesPerReLU != 656 {
		t.Errorf("label bytes %d, want 656 (41 x 16)", OnlineLabelBytesPerReLU)
	}
	if OfflineOTUpBytesPerReLU != 1312 || OfflineOTDownBytesPerReLU != 2624 {
		t.Errorf("offline OT bytes %d/%d, want 1312/2624", OfflineOTUpBytesPerReLU, OfflineOTDownBytesPerReLU)
	}
	if GarblerKnownLabelBytesPerReLU != 2*FieldBits*LabelBytes {
		t.Error("known-label bytes inconsistent")
	}
}
