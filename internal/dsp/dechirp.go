package dsp

// DechirpFused is the single-pass dechirp kernel: it fills
//
//	dst[k] = interp(x, start + k·step) · conj(ref[k]) · e^{i(phase0 + k·dphase)}
//
// fusing the three passes of the legacy path (Resample → MulConj → CFO
// rotate) into one loop over the symbol, with the rotation generated by a
// Rotator instead of a per-sample Sincos. interp is sampleLinear:
// positions outside [0, len(x)-1] read as 0.
// len(ref) must equal len(dst); phase0 = dphase = 0 skips the rotation
// entirely.
//
// When start and step are exact integers the interpolation degenerates to a
// strided copy (frac == 0 reads x[i] exactly, and out-of-range positions
// read 0 exactly), so the integer fast path is bit-identical to the general
// path — this is the detection scan's case, where start is a multiple of
// SymbolSamples() and the CFO is zero.
func DechirpFused(dst, x []complex128, start, step float64, ref []complex128, phase0, dphase float64) {
	n := len(x)
	rotate := phase0 != 0 || dphase != 0
	if s0, si := int(start), int(step); float64(s0) == start && float64(si) == step {
		if rotate {
			rot := NewRotator(phase0, dphase)
			for k := range dst {
				w := rot.Next()
				pos := s0 + k*si
				if uint(pos) >= uint(n) {
					dst[k] = 0
					continue
				}
				v, r := x[pos], ref[k]
				dst[k] = complex(real(v)*real(r)+imag(v)*imag(r),
					imag(v)*real(r)-real(v)*imag(r)) * w
			}
			return
		}
		for k := range dst {
			pos := s0 + k*si
			if uint(pos) >= uint(n) {
				dst[k] = 0
				continue
			}
			v, r := x[pos], ref[k]
			dst[k] = complex(real(v)*real(r)+imag(v)*imag(r),
				imag(v)*real(r)-real(v)*imag(r))
		}
		return
	}

	if rotate {
		rot := NewRotator(phase0, dphase)
		pos := start
		for k := range dst {
			w := rot.Next()
			v := sampleLinear(x, pos, n)
			pos += step
			r := ref[k]
			dst[k] = complex(real(v)*real(r)+imag(v)*imag(r),
				imag(v)*real(r)-real(v)*imag(r)) * w
		}
		return
	}
	pos := start
	for k := range dst {
		v := sampleLinear(x, pos, n)
		pos += step
		r := ref[k]
		dst[k] = complex(real(v)*real(r)+imag(v)*imag(r),
			imag(v)*real(r)-real(v)*imag(r))
	}
}
