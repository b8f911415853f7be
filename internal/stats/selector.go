package stats

import "math"

// Selector computes exact medians over float64 slices without modifying the
// input and without steady-state allocations: it copies the values into an
// internal scratch buffer that grows to the largest input seen and is
// reused, then runs the branch-predictable distribute selection
// (selectPair) over it. It serves every median of the receiver: the
// detection scan's noise floor, the preamble validation, Thrive's peak
// selectivity and history fit, CIC and the SNR estimate.
//
// The result is bit-identical to the sort-based 50th percentile (linear
// interpolation between the middle order statistics) for any NaN-free input
// (for signed zeros the result can differ in the sign of zero only, never
// in value). A Selector is not safe for concurrent use.
type Selector struct {
	scratch []float64
}

// grow returns the scratch buffer resized to 2n (working copy plus
// distribute target).
func (s *Selector) grow(n int) []float64 {
	if cap(s.scratch) < 2*n {
		s.scratch = make([]float64, 2*n)
	}
	return s.scratch[:2*n]
}

// median selects the median over buf[:n], with buf[n:2n] as the distribute
// target: the middle order statistic, or the mean of the middle two formed
// as kth·0.5 + next·0.5, the way a sort-based percentile interpolates.
func median(buf []float64, n int) float64 {
	i := (n - 1) / 2
	frac := 0.5 * float64((n-1)%2)
	kth, next := selectPair(buf[:n], buf[n:], i)
	if i+1 >= n {
		return kth
	}
	return kth*(1-frac) + next*frac
}

// Median returns the median of x, or 0 for an empty slice, without
// modifying x and without steady-state allocations.
func (s *Selector) Median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	buf := s.grow(len(x))
	copy(buf, x)
	return median(buf, len(x))
}

// MedianAbsResiduals returns the median of |x[i] - fit[i]| over the common
// prefix of x and fit, the per-sample residual deviation against a fitted
// curve, with no steady-state allocations.
func (s *Selector) MedianAbsResiduals(x, fit []float64) float64 {
	n := min(len(x), len(fit))
	if n == 0 {
		return 0
	}
	buf := s.grow(n)
	for i := 0; i < n; i++ {
		buf[i] = math.Abs(x[i] - fit[i])
	}
	return median(buf, n)
}

// MedianArgMin returns Median(x) together with the index of the first
// occurrence of the minimum of x. hint is a caller-supplied pivot for the
// first selection round. The hint never changes the result — selection
// returns the exact order statistics under any pivot sequence — but a hint
// near the median (a neighboring scan window's, say) shrinks the active
// range to the rank error in one pass, and the hint round reads x
// directly, skipping Median's protective copy. The argmin is folded into
// that streaming pass, so the detection scan walks each window once for
// both its selectivity threshold and its peak-finder rotation. Without a
// usable hint (NaN, or x too short to pay for it) it is Median plus one
// argmin pass. For empty x it returns (0, 0).
func (s *Selector) MedianArgMin(x []float64, hint float64) (med float64, argMin int) {
	n := len(x)
	if n > 16 && !math.IsNaN(hint) {
		buf := s.grow(n)
		kth, next, am := selectPairHint(x, buf[:n], buf[n:], (n-1)/2, hint)
		frac := 0.5 * float64((n-1)%2)
		return kth*(1-frac) + next*frac, am
	}
	for t, v := range x {
		if v < x[argMin] {
			argMin = t
		}
	}
	return s.Median(x), argMin
}
