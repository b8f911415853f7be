package dsp

// Resample fills dst[k] with the interpolated value of x at
// start + k*step (see sampleLinear). It is the workhorse of the decimating
// dechirper: step is the over-sampling factor, start the (fractional)
// symbol boundary.
func Resample(dst []complex128, x []complex128, start, step float64) {
	n := len(x)
	pos := start
	for k := range dst {
		dst[k] = sampleLinear(x, pos, n)
		pos += step
	}
}

// sampleLinear linearly interpolates x (of length n) at the real-valued
// position pos, in samples. Positions outside [0, n-1], and NaN, read as 0,
// which models the silence beyond the edges of a capture. It is shaped for
// inlining into the kernel loops.
func sampleLinear(x []complex128, pos float64, n int) complex128 {
	i := int(pos)
	if pos >= 0 && i < n-1 {
		frac := pos - float64(i)
		if frac == 0 {
			return x[i]
		}
		a, b := x[i], x[i+1]
		return a + (b-a)*complex(frac, 0)
	}
	if i == n-1 && pos == float64(i) && pos >= 0 {
		return x[i]
	}
	return 0
}
