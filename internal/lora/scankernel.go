package lora

// ScanKernel is the detection scan's batched signal-vector kernel. The scan
// evaluates consecutive one-symbol windows at integer sample starts with
// zero CFO — the one case where the dechirp is a strided conjugate multiply
// with no interpolation and no rotation — so the kernel fuses that multiply
// into the FFT's bit-reversal store: each window's dechirped symbol is
// materialized directly in the order the butterfly stages want
// (scatter-stored through the reversal permutation while the raw window is
// read sequentially), and the whole batch runs through one
// ForwardMagBatchRev. Per window this removes the separate dechirp pass and
// the bit-reversal swap pass of the SignalVectorInto path, while computing
// the exact same IEEE arithmetic — each output row is bit-identical to
// SignalVectorInto at the same start. (A split re/im variant of this kernel
// measured slower than the complex row layout — the scatter store doubles
// and the butterflies gain nothing without SIMD — so the batch rows stay
// []complex128.)
//
// A ScanKernel owns growable scratch and is not safe for concurrent use;
// each scan worker holds its own.
type ScanKernel struct {
	d     *Demodulator
	refRe []float64    // real(Up): upchirp reference, split planes
	refIm []float64    // imag(Up)
	cbuf  []complex128 // batch rows, grown to rows·N
}

// NewScanKernel builds a scan kernel sharing the demodulator's FFT plan and
// reference chirps.
func (d *Demodulator) NewScanKernel() *ScanKernel {
	n := d.p.N()
	k := &ScanKernel{d: d, refRe: make([]float64, n), refIm: make([]float64, n)}
	for i, r := range d.ref.Up {
		k.refRe[i], k.refIm[i] = real(r), imag(r)
	}
	return k
}

// UpVectorsInto fills y (length rows·N) with the signal vectors of rows
// consecutive scan windows: row r receives
// |FFT(symbol(start0 + r·hop) ⊙ C')|², bit-identical to
// SignalVectorInto(yRow, buf, rx, float64(start0+r·hop), 0, 0). Windows may
// run off the end of rx; out-of-range samples read as 0, matching the
// fused dechirp's contract.
func (k *ScanKernel) UpVectorsInto(y []float64, rx []complex128, start0, hop, rows int) {
	d := k.d
	n := d.p.N()
	if len(y) != rows*n {
		panic("lora: ScanKernel.UpVectorsInto length mismatch")
	}
	if rows <= 0 {
		return
	}
	if cap(k.cbuf) < rows*n {
		k.cbuf = make([]complex128, rows*n)
	}
	x := k.cbuf[:rows*n]
	rev := d.plan.Rev()
	osf := d.p.OSF
	m := len(rx)
	for r := 0; r < rows; r++ {
		s0 := start0 + r*hop
		row := x[r*n : (r+1)*n : (r+1)*n]
		// Sequential strided read of the raw window (prefetch-friendly —
		// rev-order loads over the osf-wide window thrash the cache),
		// scatter-stored into the compact L1-resident row at the
		// bit-reversed slot. rev is an involution, so the scatter produces
		// exactly the swap pass's layout.
		if last := s0 + (n-1)*osf; s0 >= 0 && last < m {
			// Fully in-range window: walk a subslice with the load index as
			// the loop condition, so the per-sample range check vanishes.
			win := rx[s0 : last+1]
			i := 0
			for pos := 0; pos < len(win); pos += osf {
				v := win[pos]
				vr, vi := real(v), imag(v)
				rr, ri := k.refRe[i], k.refIm[i]
				row[rev[i]] = complex(vr*rr+vi*ri, vi*rr-vr*ri)
				i++
			}
			continue
		}
		pos := s0
		for i := 0; i < n; i++ {
			j := rev[i]
			if uint(pos) >= uint(m) {
				row[j] = 0
				pos += osf
				continue
			}
			v := rx[pos]
			pos += osf
			vr, vi := real(v), imag(v)
			rr, ri := k.refRe[i], k.refIm[i]
			row[j] = complex(vr*rr+vi*ri, vi*rr-vr*ri)
		}
	}
	d.plan.ForwardMagBatchRev(y, x, rows)
}
