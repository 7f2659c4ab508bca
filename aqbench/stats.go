package main

import (
	"math"
	"sort"
	"syscall"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs
// is not modified. An empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample of xs, or the mean of the two middle
// samples when the count is even. An empty slice yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond counts the samples strictly above v: how many samples support a
// reported percentile.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// ratio is a/b, or 0 when b is 0, so a layer that did no work reports 0
// instead of NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the CPU time (user plus system) the process has used. It
// excludes time the hypervisor steals from the guest's CPUs, which on a
// shared host inflates wall-clock times by tens of percent.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size in MB (getrusage's
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
