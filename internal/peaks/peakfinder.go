// Package peaks provides the peak-finding primitive used throughout TnB
// (the role of the MATLAB peakfinder the paper cites) and the per-packet
// signal-vector calculator (the paper's "signal calculation component").
package peaks

// Peak is one local maximum of a signal vector.
type Peak struct {
	Bin    int
	Height float64
}

// FindInto locates local maxima of y that stand out from their
// surroundings by at least sel (the selectivity rule of the MATLAB
// peakfinder: a candidate maximum counts only if it exceeds the lowest point
// between it and the previous accepted extremum by sel). When sel <= 0 it
// defaults to (max-min)/4. At most maxPeaks peaks are returned, highest
// first; pass maxPeaks <= 0 for no limit.
//
// The spectrum of a dechirped LoRa symbol is circular, so y is treated as a
// circular buffer: a maximum spanning the wrap point is found once.
//
// The peaks are appended to dst[:0], so a caller that reuses the returned
// slice across calls pays no steady-state allocations. The result aliases
// dst's backing array when its capacity suffices.
func FindInto(dst []Peak, y []float64, sel float64, maxPeaks int) []Peak {
	found := dst[:0]
	n := len(y)
	if n == 0 {
		return found
	}
	// One fused pass finds the range and the first global minimum: the
	// strict `<` update lands on the same index as a separate first-match
	// scan, so the rotation below is unchanged.
	minV, maxV := y[0], y[0]
	rot := 0
	for i, v := range y {
		if v < minV {
			minV, rot = v, i
		}
		maxV = max(maxV, v)
	}
	if sel <= 0 {
		sel = (maxV - minV) / 4
	}
	if maxV == minV {
		return found
	}
	if maxV-minV < sel {
		// No excursion can satisfy the hysteresis (every accepted peak
		// needs curMax-curMin >= sel with both inside [minV, maxV]), so the
		// walk cannot emit anything.
		return found
	}
	return findFrom(found, y, sel, maxPeaks, rot)
}

// FindIntoAt is FindInto for a caller that already knows where y's minimum
// first occurs (the detection scan extracts it from the same pass that
// computes its selectivity median): the extrema pass is skipped and the
// hysteresis walk starts at rot directly. rot must be the first index of
// min(y) and sel must be positive, and then the result is identical to
// FindInto — the extrema pass only chose the rotation point and gated walks
// that provably emit nothing.
func FindIntoAt(dst []Peak, y []float64, sel float64, maxPeaks, rot int) []Peak {
	if len(y) == 0 {
		return dst[:0]
	}
	return findFrom(dst[:0], y, sel, maxPeaks, rot)
}

// findFrom is the hysteresis walk shared by FindInto and FindIntoAt,
// starting from a global minimum at rot.
func findFrom(found []Peak, y []float64, sel float64, maxPeaks, rot int) []Peak {
	// Rotate so the scan starts at a global minimum: every true peak then
	// lies strictly inside the scan, making the circular handling exact. The
	// walk keeps a physical index that wraps once instead of reducing
	// (i+rot) mod n on every access — the modulo dominated this loop.

	// Hysteresis walk: track the running minimum since the last accepted
	// peak and the running maximum since the last valley. The circular walk
	// runs as two linear segments ([rot+1, n) then [0, rot)) — the same
	// visit order as a wrapping index, without the per-bin wrap test and
	// bounds check.
	curMin, curMax := y[rot], y[rot]
	maxBin := rot
	lookingForMax := true
	for seg := 0; seg < 2; seg++ {
		ys, base := y[rot+1:], rot+1
		if seg == 1 {
			ys, base = y[:rot], 0
		}
		for jj, v := range ys {
			if lookingForMax {
				if v > curMax {
					curMax, maxBin = v, base+jj
				} else if curMax-v >= sel && curMax-curMin >= sel {
					found = append(found, Peak{Bin: maxBin, Height: curMax})
					lookingForMax = false
					curMin = v
				}
			} else {
				if v < curMin {
					curMin = v
				} else if v-curMin >= sel {
					lookingForMax = true
					curMax, maxBin = v, base+jj
				}
			}
		}
	}
	// Close the circle: the final rising run may form a peak against the
	// starting minimum.
	if lookingForMax && curMax-curMin >= sel && curMax-y[rot] >= sel && maxBin != rot {
		found = append(found, Peak{Bin: maxBin, Height: curMax})
	}

	// Stable insertion sort, highest first. Peak counts are bounded by the
	// caller's maxPeaks budget (a handful), where this beats sort.Slice and
	// its per-call closure/Swapper allocations.
	for i := 1; i < len(found); i++ {
		p := found[i]
		k := i
		for ; k > 0 && found[k-1].Height < p.Height; k-- {
			found[k] = found[k-1]
		}
		found[k] = p
	}
	if maxPeaks > 0 && len(found) > maxPeaks {
		found = found[:maxPeaks]
	}
	return found
}

// HighestBin returns the bin of the largest element of y, a convenience for
// single-user demodulation paths.
func HighestBin(y []float64) int {
	best, bi := 0.0, 0
	for i, v := range y {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
