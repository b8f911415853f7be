// Package stats provides the small statistical toolkit used across the
// receiver and the evaluation harness: central tendencies, robust deviation
// measures, empirical CDFs, histograms and a moving-average smoother.
package stats

import (
	"math"
	"sort"
)

// selectPair returns the k-th and (k+1)-th order statistics of a, destroying
// a and using b (same length) as the distribute target. Each round streams
// the active range through a two-ended distribute — every element is stored
// unconditionally at both the low and high cursor and a comparison flag
// advances exactly one of them — so the partition has no data-dependent
// branches to mispredict, unlike an in-place quickselect swap walk. The
// buffers ping-pong between rounds. When k is the last index the second
// return value is meaningless (+Inf at worst); callers guard on k+1.
func selectPair(a, b []float64, k int) (kth, next float64) {
	return selectRounds(a, b, 0, len(a), k, math.Inf(1))
}

// selectPairHint is selectPair preceded by one distribute round that reads x
// without modifying it and uses the caller's pivot instead of a sampled one.
// The pivot sequence changes only how fast the active range shrinks, never
// the order statistics returned, so any hint yields the same bits as
// selectPair over a copy of x; a hint near the k-th order statistic (e.g.
// the previous scan window's median) collapses the range to the rank error
// in a single streaming pass. A hint at or below the minimum degenerates to
// a reversed copy of x and the usual sampled rounds take over.
//
// Since the hint round already streams all of x, it also reports the index
// of the first occurrence of the minimum, which the detection scan feeds to
// the peak finder as its rotation point.
func selectPairHint(x, a, b []float64, k int, hint float64) (kth, next float64, argMin int) {
	n := len(x)
	i, j := 0, n-1
	minV := math.Inf(1)
	for t := 0; t < n; t++ {
		v := x[t]
		a[i] = v
		a[j] = v
		c := 0
		if v < hint {
			c = 1
		}
		i += c
		j += c - 1
		if v < minV {
			minV, argMin = v, t
		}
	}
	// a[0:i] holds everything < hint, a[i:n] everything >= it — a partitioned
	// permutation of x in every case, including the degenerate i == 0 (where
	// a is x reversed), so no separate copy is ever needed.
	if k < i {
		rightMin := math.Inf(1)
		for _, v := range a[i:] {
			if v < rightMin {
				rightMin = v
			}
		}
		kth, next = selectRounds(a, b, 0, i, k, rightMin)
		return kth, next, argMin
	}
	kth, next = selectRounds(a, b, i, n, k, math.Inf(1))
	return kth, next, argMin
}

// selectRounds runs the sampled-pivot distribute rounds of selectPair over
// the active range src[lo:hi], with rightMin the minimum of everything
// already discarded to the right of it — the (k+1)-th order statistic when
// k+1 falls past the final range.
func selectRounds(src, dst []float64, lo, hi, k int, rightMin float64) (kth, next float64) {
rounds:
	for hi-lo > 16 {
		mid := lo + (hi-lo)/2
		p0, p1, p2 := src[lo], src[mid], src[hi-1]
		if p1 < p0 {
			p0, p1 = p1, p0
		}
		if p2 < p1 {
			p1 = p2
			if p1 < p0 {
				p1 = p0
			}
		}
		pivot := p1

		i, j := lo, hi-1
		for t := lo; t < hi; t++ {
			v := src[t]
			dst[i] = v
			dst[j] = v
			c := 0
			if v < pivot {
				c = 1
			}
			i += c
			j += c - 1
		}
		// dst[lo:i] holds everything < pivot, dst[i:hi] everything >= it.
		switch {
		case k < i:
			for _, v := range dst[i:hi] {
				if v < rightMin {
					rightMin = v
				}
			}
			hi = i
		case i > lo:
			lo = i
		default:
			// Nothing below the pivot (constant stretches are common in
			// gated signal vectors): split equals from greaters so the
			// range still shrinks.
			i, j = lo, hi-1
			for t := lo; t < hi; t++ {
				v := src[t]
				dst[i] = v
				dst[j] = v
				c := 0
				if v <= pivot {
					c = 1
				}
				i += c
				j += c - 1
			}
			if k < i {
				// dst[lo:i] are all == pivot.
				if k+1 < i {
					return pivot, pivot
				}
				for _, v := range dst[i:hi] {
					if v < rightMin {
						rightMin = v
					}
				}
				return pivot, rightMin
			}
			if i == lo {
				// No comparison holds (NaN data): bail to the sort below,
				// which terminates on any input.
				break rounds
			}
			lo = i
		}
		src, dst = dst, src
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && src[j] < src[j-1]; j-- {
			src[j], src[j-1] = src[j-1], src[j]
		}
	}
	kth = src[k]
	if k+1 < hi {
		next = src[k+1]
	} else {
		next = rightMin
	}
	return kth, next
}

// MovingAverageInto writes into dst the centered moving average of x with
// the given window (forced odd, at least 1). Near the edges the window
// shrinks symmetrically, matching MATLAB's smoothdata(..,'movmean')
// behaviour. dst is resized (reallocated only when its capacity is short of
// len(x)) and returned, so a caller reusing the returned slice pays no
// steady-state allocations. dst must not alias x.
func MovingAverageInto(dst, x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	if window%2 == 0 {
		window++
	}
	half := window / 2
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	out := dst[:len(x)]
	for i := range x {
		lo := max(0, i-half)
		hi := min(len(x)-1, i+half)
		var s float64
		for j := lo; j <= hi; j++ {
			s += x[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the samples. The input is copied.
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= v).
func (c *CDF) At(v float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, v)
	// Advance over equal values so At is right-continuous.
	for i < len(c.sorted) && c.sorted[i] == v {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Points returns up to n evenly spaced (value, probability) points of the
// CDF, convenient for printing a figure series.
func (c *CDF) Points(n int) (values, probs []float64) {
	if len(c.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	values = make([]float64, n)
	probs = make([]float64, n)
	for k := 0; k < n; k++ {
		i := k * (len(c.sorted) - 1) / max(1, n-1)
		if n == 1 {
			i = len(c.sorted) - 1
		}
		values[k] = c.sorted[i]
		probs[k] = float64(i+1) / float64(len(c.sorted))
	}
	return values, probs
}

// Len returns the number of samples behind the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// Histogram counts samples into nbins equal-width bins over [lo, hi].
// Samples outside the range are clamped into the edge bins.
func Histogram(samples []float64, lo, hi float64, nbins int) []int {
	if nbins <= 0 || hi <= lo {
		return nil
	}
	counts := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, v := range samples {
		b := int((v - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}
