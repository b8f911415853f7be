package dsp

import "math"

// MulConj writes a[i] * conj(b[i]) into dst. All three slices must have the
// same length; dst may alias a or b.
func MulConj(dst, a, b []complex128) {
	for i := range dst {
		br, bi := real(b[i]), imag(b[i])
		ar, ai := real(a[i]), imag(a[i])
		dst[i] = complex(ar*br+ai*bi, ai*br-ar*bi)
	}
}

// Scale multiplies every element of x by s in place.
func Scale(x []complex128, s float64) {
	c := complex(s, 0)
	for i := range x {
		x[i] *= c
	}
}

// MagSq writes |x[i]|² into dst. The slices must have the same length.
func MagSq(dst []float64, x []complex128) {
	for i, v := range x {
		dst[i] = real(v)*real(v) + imag(v)*imag(v)
	}
}

// Cis returns e^{iθ}.
func Cis(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}
