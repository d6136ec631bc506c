package main

import (
	"math"
	"sort"
	"time"
)

// sample is one timed operation.
type sample struct {
	kind   string
	dur    time.Duration
	traced bool
	ok     bool
}

// kindMinima returns each kind's minimum latency over the successful
// samples keep selects. Noise on a shared host only adds time to
// deterministic work, so the minimum estimates the code's own cost.
func kindMinima(samples []sample, keep func(sample) bool) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range samples {
		if !s.ok || (keep != nil && !keep(s)) {
			continue
		}
		if m, ok := out[s.kind]; !ok || s.dur < m {
			out[s.kind] = s.dur
		}
	}
	return out
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// geomeanMS is the geomean, in ms, of the given per-kind minima.
func geomeanMS(minima map[string]time.Duration) float64 {
	xs := make([]float64, 0, len(minima))
	for _, d := range minima {
		xs = append(xs, float64(d)/1e6)
	}
	return geomean(xs)
}

// minstsPerSec is the sum of instructions across kinds divided by the sum
// of each kind's minimum latency, in millions per second.
func minstsPerSec(minima map[string]time.Duration, insts map[string]uint64) float64 {
	var n uint64
	var t time.Duration
	for k, d := range minima {
		n += insts[k]
		t += d
	}
	if t <= 0 {
		return 0
	}
	return float64(n) / t.Seconds() / 1e6
}

// rank is the 1-based nearest rank of percentile p among n values. The
// epsilon keeps p*n/100 from rounding up past an exact integer.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentile is the nearest-rank percentile p of ascending values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := min(max(rank(p, len(sorted))-1, 0), len(sorted)-1)
	return sorted[i]
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest ladder percentile with at least 10 of n
// samples beyond it, or 50 when there are too few samples for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// sortedMS returns the durations of the samples keep selects, in ms,
// ascending.
func sortedMS(samples []sample, keep func(sample) bool) []float64 {
	var xs []float64
	for _, s := range samples {
		if keep == nil || keep(s) {
			xs = append(xs, float64(s.dur)/1e6)
		}
	}
	sort.Float64s(xs)
	return xs
}

// median of arbitrary values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// fastest runs f n times and returns its minimum duration.
func fastest(n int, f func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
