package wireless

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTransferSeconds(t *testing.T) {
	l := Link{TotalBps: 1e9, UploadFrac: 0.5}
	// 1 GB up + 1 GB down at 500 Mb/s each = 16 + 16 s.
	got := l.TransferSeconds(1e9, 1e9)
	if math.Abs(got-32) > 1e-9 {
		t.Errorf("transfer %f, want 32", got)
	}
	if l.UploadBps() != 5e8 || l.DownloadBps() != 5e8 {
		t.Error("even split bandwidths wrong")
	}
}

func TestInvalidLinkPanics(t *testing.T) {
	for _, l := range []Link{
		{TotalBps: 0, UploadFrac: 0.5},
		{TotalBps: 1e9, UploadFrac: 0},
		{TotalBps: 1e9, UploadFrac: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("link %+v should panic", l)
				}
			}()
			l.TransferSeconds(1, 1)
		}()
	}
}

func TestOptimalUploadFracAnalytic(t *testing.T) {
	// Equal volumes -> even split.
	if f := OptimalUploadFrac(Profile{UpBytes: 100, DownBytes: 100}); math.Abs(f-0.5) > 1e-9 {
		t.Errorf("symmetric optimum %f, want 0.5", f)
	}
	// 16x more download -> u* = 1/(1+4) = 0.2.
	if f := OptimalUploadFrac(Profile{UpBytes: 1e6, DownBytes: 16e6}); math.Abs(f-0.2) > 1e-9 {
		t.Errorf("asymmetric optimum %f, want 0.2", f)
	}
	// Degenerate profiles stay in bounds.
	if f := OptimalUploadFrac(Profile{}); f != 0.5 {
		t.Errorf("empty profile optimum %f, want 0.5", f)
	}
	if f := OptimalUploadFrac(Profile{DownBytes: 1e9}); f < 0.009 {
		t.Errorf("all-download optimum %f must keep minimum upload", f)
	}
}

func TestOptimalIsActuallyOptimal(t *testing.T) {
	// Property: the analytic optimum beats every nearby fraction.
	check := func(up, down uint32) bool {
		p := Profile{UpBytes: int64(up)%1e6 + 1, DownBytes: int64(down)%1e6 + 1}
		opt := OptimalUploadFrac(p)
		l := Link{TotalBps: 1e9, UploadFrac: opt}
		best := l.TransferSeconds(p.UpBytes, p.DownBytes)
		for _, d := range []float64{-0.05, 0.05} {
			f := opt + d
			if f <= 0.01 || f >= 0.99 {
				continue
			}
			alt := Link{TotalBps: 1e9, UploadFrac: f}
			if alt.TransferSeconds(p.UpBytes, p.DownBytes) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepShape(t *testing.T) {
	// A download-heavy profile improves monotonically as download slots
	// grow until the optimum, then worsens — Figure 11's U shape.
	p := Profile{UpBytes: 1e6, DownBytes: 50e6}
	fracs := []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
	times := Sweep(p, 1e9, fracs)
	minIdx := 0
	for i, v := range times {
		if v < times[minIdx] {
			minIdx = i
		}
	}
	if fracs[minIdx] > 0.3 {
		t.Errorf("download-heavy optimum at upload frac %f, want low", fracs[minIdx])
	}
	for i := minIdx; i < len(times)-1; i++ {
		if times[i+1] < times[i] {
			t.Errorf("sweep not unimodal after optimum at %v", fracs[i+1])
		}
	}
}

func TestProfileOps(t *testing.T) {
	a := Profile{UpBytes: 10, DownBytes: 20}
	b := Profile{UpBytes: 1, DownBytes: 2}
	if s := a.Add(b); s.UpBytes != 11 || s.DownBytes != 22 {
		t.Errorf("Add: %+v", s)
	}
	if s := a.Scale(0.5); s.UpBytes != 5 || s.DownBytes != 10 {
		t.Errorf("Scale: %+v", s)
	}
}
