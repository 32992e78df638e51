package main

import (
	"math"
	"math/bits"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, the mean of the two middle values
// for an even count, and NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four groups, by
// the same "exclusive" method as Python's statistics.quantiles(xs, n=4), so
// spreads computed here match the ones computed from the printed values. A
// single value is its own quartiles; an empty slice gives NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that has at least
// ten of n samples beyond it; ok is false when even the median has fewer.
func tailPercentile(n int64) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation on rank p/100*(n+1), the exclusive method quartiles uses,
// clamped to the sample range.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	h := p / 100 * float64(len(s)+1)
	if h <= 1 {
		return s[0]
	}
	if h >= float64(len(s)) {
		return s[len(s)-1]
	}
	k := int(h)
	return s[k-1] + (h-float64(k))*(s[k]-s[k-1])
}

// Duration histogram geometry: values below histSub nanoseconds get one
// bucket each; above, every power of two splits into histSub buckets, so a
// bucket is at most 1/histSub (about 3%) of its value wide.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = histSub + 40*histSub
)

// durHist is a fixed-size log-linear histogram of nanosecond durations. Add
// never allocates, so it can time calls inside an allocation-free loop
// without disturbing the allocation counters it sits next to.
type durHist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
}

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	idx := histSub + e*histSub + int(v>>uint(e)) - histSub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBounds returns the lower bound and width of bucket idx.
func histBounds(idx int) (lo, width float64) {
	if idx < histSub {
		return float64(idx), 1
	}
	e := (idx - histSub) / histSub
	m := (idx-histSub)%histSub + histSub
	return float64(int64(m) << uint(e)), float64(int64(1) << uint(e))
}

func (h *durHist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sum += ns
}

func (h *durHist) merge(o *durHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-th quantile (0..1), interpolated linearly within
// the bucket holding rank q*n, or 0 for an empty histogram.
func (h *durHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, w := histBounds(i)
			return lo + w*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}
