package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// This sandbox's cores change speed by a quarter from one second to the
// next (a 64-bit dependency chain takes 2.4 or 3.1 ms, in spells of seconds
// to minutes), and everything CPU-bound in the system follows: the same
// cold connect takes 440 or 560 ms. Left alone, that is a run-to-run spread
// wider than any bound worth setting. So every run samples a fixed integer
// kernel — the benchmark's own, which no change to the repository can make
// faster — through its measured window, and reports its end-to-end timings
// at reference speed: measured × refNominal ÷ the kernel's measured time.
// The factor is printed with every run; raw = reported ÷ factor.

// refNominal is the reference kernel's time at the speed timings are
// reported at: this sandbox's slower, usual state.
const refNominal = 3 * time.Millisecond

// refSink keeps the kernel's result live, so the compiler keeps its work.
var refSink atomic.Uint64

// refKernel runs the fixed work — one xorshift dependency chain with a
// store into a 32 KiB table, no allocation, no system call — and returns
// how long it took.
func refKernel() time.Duration {
	var table [4096]uint64
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1_600_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&4095] += x
	}
	refSink.Store(table[0])
	return time.Since(start)
}

// speedSamples collects reference-kernel timings taken while nothing else
// of the benchmark was running.
type speedSamples struct {
	mu sync.Mutex
	ds []time.Duration
}

func (s *speedSamples) sample() { s.add(refKernel()) }

func (s *speedSamples) add(d time.Duration) {
	s.mu.Lock()
	s.ds = append(s.ds, d)
	s.mu.Unlock()
}

// factors returns what to multiply measured times by to get times at
// reference speed: typical for medians (from the median sample: a window
// that was fast for a third of its length still has a slow median latency),
// mean for totals such as CPU time and throughput. Both are 1 without
// samples.
func (s *speedSamples) factors() (typical, mean float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ds) == 0 {
		return 1, 1
	}
	vs := durationsMs(s.ds)
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return ms(refNominal) / median(vs), ms(refNominal) / (sum / float64(len(vs)))
}
