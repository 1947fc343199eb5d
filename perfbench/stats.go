package main

import (
	"math"
	"math/rand"
	"sort"
	"syscall"
	"time"

	"repro/internal/arch"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// which it sorts in place. Empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// minTail is how many samples must lie beyond a percentile before it is
// reported.
const minTail = 10

// tailOK reports whether a run of n samples may report its q-quantile.
func tailOK(n int, q float64) bool { return beyond(n, q) >= minTail }

// median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// zipfStream draws corpus ranks from a Zipf distribution, deterministic
// by seed: rank 0 is the hottest key.
type zipfStream struct {
	z *rand.Zipf
}

// zipfExponent shapes the key popularity. Go's Zipf needs s > 1; 1.05
// keeps a long tail, so a few percent of draws fall beyond the memory
// tier's capacity.
const zipfExponent = 1.05

func newZipfStream(seed int64, n int) *zipfStream {
	r := rand.New(rand.NewSource(seed))
	return &zipfStream{z: rand.NewZipf(r, zipfExponent, 1, uint64(n-1))}
}

func (s *zipfStream) next() int { return int(s.z.Uint64()) }

// Paper reference values for paper_err_pct: the geomean speedups over
// NVP in the paper's Figures 5 (outage-free) and 6 (RFHome), as quoted in
// the headline table of EXPERIMENTS.md.
var (
	paperFig5 = map[arch.Kind]float64{
		arch.ReplayCache: 5.10, arch.NVSRAM: 11.53,
		arch.SweepNVMSearch: 8.80, arch.SweepEmptyBit: 8.91,
	}
	paperFig6 = map[arch.Kind]float64{
		arch.ReplayCache: 4.26, arch.NVSRAM: 7.37,
		arch.SweepNVMSearch: 14.60, arch.SweepEmptyBit: 14.86,
	}
)

// evalKinds are the four evaluated schemes of Figures 5 and 6, in the
// paper's bar order.
var evalKinds = []arch.Kind{arch.ReplayCache, arch.NVSRAM, arch.SweepNVMSearch, arch.SweepEmptyBit}

// paperErrPct is the mean absolute relative error, in percent, of the
// measured Fig5 and Fig6 geomean speedups against the paper's.
func paperErrPct(fig5, fig6 map[arch.Kind]float64) float64 {
	var errs []float64
	for _, k := range evalKinds {
		errs = append(errs, math.Abs(fig5[k]-paperFig5[k])/paperFig5[k])
		errs = append(errs, math.Abs(fig6[k]-paperFig6[k])/paperFig6[k])
	}
	return 100 * mean(errs)
}
