package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ict-repro/mpid/internal/stats"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The order statistics below are internal/stats.Summary's (linear
// interpolation between closest ranks), over a plain slice; vals is not
// modified and no samples give 0.
func summaryOf(vals []float64) *stats.Summary {
	var s stats.Summary
	for _, v := range vals {
		s.Add(v)
	}
	return &s
}

// quantile returns the q-quantile (0..1) of vals.
func quantile(vals []float64, q float64) float64 { return summaryOf(vals).Percentile(100 * q) }
func median(vals []float64) float64              { return summaryOf(vals).Median() }
func mean(vals []float64) float64                { return summaryOf(vals).Mean() }

func minMax(vals []float64) (lo, hi float64) {
	s := summaryOf(vals)
	return s.Min(), s.Max()
}

// processCPU is user+system CPU time consumed by this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with a valid who and pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's resident-set high-water mark (VmHWM);
// currentRSSMB its resident set now.
func peakRSSMB() float64    { return statusMB("VmHWM:") }
func currentRSSMB() float64 { return statusMB("VmRSS:") }

func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
