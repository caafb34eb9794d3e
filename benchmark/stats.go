package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-th quantile of xs by linear interpolation, 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process peak resident set (VmHWM) from
// /proc/self/status; 0 when unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// noiseBuf is the fixed input of the reference kernel.
var noiseBuf = func() []byte {
	b := make([]byte, 8<<20)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

// resultSink keeps results nobody reads from being optimized away.
var resultSink uint64

// refKernel is the noise sentinel: a fixed pure-Go computation (FNV-1a
// over a fixed buffer, then map inserts) whose run time changes only
// when the machine does. It returns its wall time in seconds and never
// rescales a metric.
func refKernel() float64 {
	start := time.Now()
	h := uint64(14695981039346656037)
	for _, c := range noiseBuf {
		h = (h ^ uint64(c)) * 1099511628211
	}
	m := make(map[uint64]uint64, 1024)
	for i := uint64(0); i < 150000; i++ {
		h = (h ^ i) * 1099511628211
		m[h&0xffff] += h
	}
	resultSink += h + uint64(len(m))
	return time.Since(start).Seconds()
}
