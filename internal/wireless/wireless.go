// Package wireless models the client's 5G TDD link (§5.3): a 10 ms frame of
// 10 sub-frames, each allocated to upload or download, so the fraction of
// bandwidth in each direction is tunable in 10% steps (and finer with
// dynamic sub-frame structure, which we model as a continuous fraction).
// Wireless Slot Allocation (WSA) picks the split that minimizes the
// protocol's total transfer time.
package wireless

import (
	"fmt"
	"math"
)

// Link is a TDD wireless link.
type Link struct {
	// TotalBps is the aggregate physical bandwidth in bits per second.
	TotalBps float64
	// UploadFrac is the fraction of slots allocated to upload, in (0, 1).
	UploadFrac float64
}

// UploadBps returns the upload bandwidth.
func (l Link) UploadBps() float64 { return l.TotalBps * l.UploadFrac }

// DownloadBps returns the download bandwidth.
func (l Link) DownloadBps() float64 { return l.TotalBps * (1 - l.UploadFrac) }

// TransferSeconds returns the time to move upBytes up and downBytes down.
// Protocol phases are sequential request/response rounds, so the two
// directions add rather than overlap; this sequential model reproduces the
// paper's optimal splits (802 Mb/s download for Server-Garbler, 835 Mb/s
// upload for Client-Garbler at 1 Gb/s total).
func (l Link) TransferSeconds(upBytes, downBytes int64) float64 {
	if l.TotalBps <= 0 || l.UploadFrac <= 0 || l.UploadFrac >= 1 {
		panic(fmt.Sprintf("wireless: invalid link %+v", l))
	}
	return float64(upBytes)*8/l.UploadBps() + float64(downBytes)*8/l.DownloadBps()
}

// Profile is a protocol's total communication volume by direction.
type Profile struct {
	UpBytes, DownBytes int64
}

// Add returns the component-wise sum.
func (p Profile) Add(o Profile) Profile {
	return Profile{UpBytes: p.UpBytes + o.UpBytes, DownBytes: p.DownBytes + o.DownBytes}
}

// Scale multiplies both directions by k.
func (p Profile) Scale(k float64) Profile {
	return Profile{
		UpBytes:   int64(float64(p.UpBytes) * k),
		DownBytes: int64(float64(p.DownBytes) * k),
	}
}

// OptimalUploadFrac returns the continuous upload fraction minimizing
// TransferSeconds for the profile: u* = sqrt(U) / (sqrt(U) + sqrt(D)).
// (Minimize U/u + D/(1-u); stationarity gives U/u^2 = D/(1-u)^2.)
func OptimalUploadFrac(p Profile) float64 {
	u := sqrt(float64(p.UpBytes))
	d := sqrt(float64(p.DownBytes))
	if u+d == 0 {
		return 0.5
	}
	f := u / (u + d)
	// Keep a sliver of bandwidth in each direction: a zero-width channel
	// would make any nonzero transfer take forever.
	const min = 0.01
	if f < min {
		f = min
	}
	if f > 1-min {
		f = 1 - min
	}
	return f
}

// Sweep evaluates the transfer time at each upload fraction in fracs,
// the curve behind Figure 11.
func Sweep(p Profile, totalBps float64, fracs []float64) []float64 {
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		l := Link{TotalBps: totalBps, UploadFrac: f}
		out[i] = l.TransferSeconds(p.UpBytes, p.DownBytes)
	}
	return out
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
