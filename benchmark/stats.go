package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of vs (mean of the two middle values for
// an even count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics, 0 for an empty slice. vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so a
// spread computed here matches the one the acceptance procedure computes.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		return median(vs), median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// k-th of 4 cut points at position k*(n+1)/4, 1-based, clamped.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMiB reads the process's current resident set from /proc/self/statm; 0
// where procfs is unavailable.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status; 0 where procfs is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kib, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kib / 1024
		}
	}
	return 0
}
