// Package dsp provides the signal-processing primitives used by the LoRa
// receiver: an iterative radix-2 FFT with cached twiddle factors, complex
// vector helpers, fractional-delay interpolation and Gaussian noise.
//
// Everything here is pure Go on top of the standard library. FFT sizes in
// this repository are always powers of two (2^SF, optionally times the
// over-sampling factor), so a radix-2 transform is sufficient.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FFTPlan holds precomputed twiddle factors and the bit-reversal permutation
// for one transform size. A plan is safe for concurrent use once built.
type FFTPlan struct {
	n       int
	logN    int
	rev     []int32      // bit-reversal permutation
	twiddle []complex128 // e^{-2πik/n} for k in [0, n/2)
	// twStage[s] holds the twiddles of generic stage size 8<<s compacted to
	// stride 1 — twStage[s][i] == twiddle[i·(n/(8<<s))], the same bits — so
	// the stage loops walk their table sequentially instead of re-striding
	// the shared one.
	twStage [][]complex128
}

var (
	planMu    sync.RWMutex
	planCache = map[int]*FFTPlan{}
)

// NewFFTPlan builds (or returns a cached) plan for transforms of length n.
// n must be a power of two and at least 1.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two", n)
	}
	planMu.RLock()
	p, ok := planCache[n]
	planMu.RUnlock()
	if ok {
		return p, nil
	}

	p = &FFTPlan{
		n:       n,
		logN:    bits.TrailingZeros(uint(n)),
		rev:     make([]int32, n),
		twiddle: make([]complex128, n/2),
	}
	shift := 32 - p.logN
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse32(uint32(i)) >> uint(shift))
	}
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	for size := 8; size <= n>>1; size <<= 1 {
		half, step := size>>1, n/size
		tw := make([]complex128, half)
		for i := range tw {
			tw[i] = p.twiddle[i*step]
		}
		p.twStage = append(p.twStage, tw)
	}

	planMu.Lock()
	planCache[n] = p
	planMu.Unlock()
	return p, nil
}

// MustPlan is NewFFTPlan that panics on invalid sizes. Intended for sizes
// derived from a SpreadingFactor, which are powers of two by construction.
func MustPlan(n int) *FFTPlan {
	p, err := NewFFTPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns the transform length the plan was built for.
func (p *FFTPlan) Size() int { return p.n }

// Rev returns the plan's bit-reversal permutation: Rev()[i] is the input
// index whose value lands in slot i after the reversal pass. Kernels that
// fuse their load with the reversal (reading input already permuted, so the
// transform skips its swap pass) index their tables through it. The slice is
// shared plan state — callers must not modify it.
func (p *FFTPlan) Rev() []int32 { return p.rev }

// Forward computes the in-place forward DFT of x, unnormalized. len(x) must
// equal the plan size.
func (p *FFTPlan) Forward(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: FFT input length %d != plan size %d", len(x), p.n))
	}
	p.bitReverse(x)
	p.butterflies(x, p.n)
}

// ForwardMag computes y[i] = |FFT(x)[i]|² in a single pass: the final
// butterfly stage feeds squared magnitudes straight into y instead of
// materializing the spectrum and re-walking it with MagSq. x is consumed as
// scratch — after the call it holds the two half-size sub-transforms, not
// the spectrum. len(y) and len(x) must equal the plan size.
func (p *FFTPlan) ForwardMag(y []float64, x []complex128) {
	n := p.n
	if len(x) != n || len(y) != n {
		panic(fmt.Sprintf("dsp: ForwardMag lengths (%d, %d) != plan size %d", len(y), len(x), n))
	}
	if n == 1 {
		y[0] = real(x[0])*real(x[0]) + imag(x[0])*imag(x[0])
		return
	}
	p.bitReverse(x)
	p.butterflies(x, n>>1)
	// Final stage fused with the magnitude computation: the butterfly
	// outputs a = x[i] + w·x[i+half] and b = x[i] − w·x[i+half] are squared
	// in registers and never stored.
	half := n >> 1
	for i := 0; i < half; i++ {
		u := x[i]
		t := x[i+half]
		if i != 0 {
			t = p.twiddle[i] * t
		}
		a, b := u+t, u-t
		y[i] = real(a)*real(a) + imag(a)*imag(a)
		y[i+half] = real(b)*real(b) + imag(b)*imag(b)
	}
}

// ForwardMagBatch is ForwardMag over rows stacked symbols: x and y hold
// rows contiguous segments of the plan size, and row r is transformed
// exactly as ForwardMag(y[r·n:(r+1)·n], x[r·n:(r+1)·n]) would — bit for bit
// — but with one twiddle sweep shared by the whole stack. After the
// twiddle-free size-2/4 stages (which run across the flat buffer, since row
// boundaries are multiples of every stage size), each generic-stage twiddle
// is loaded once and applied to the matching butterfly of every block of
// every row, amortizing the table walk that dominates small transforms. x is
// consumed as scratch. Rows are independent, so interleaving stages across
// rows cannot change any row's result.
func (p *FFTPlan) ForwardMagBatch(y []float64, x []complex128, rows int) {
	n := p.n
	if len(x) != rows*n || len(y) != rows*n {
		panic(fmt.Sprintf("dsp: ForwardMagBatch lengths (%d, %d) != %d rows of plan size %d",
			len(y), len(x), rows, n))
	}
	if rows <= 0 {
		return
	}
	if n < 8 {
		// Tiny transforms have no generic stages to batch; the stage layout
		// below needs n to be a multiple of the size-4 stage.
		for r := 0; r < rows; r++ {
			p.ForwardMag(y[r*n:(r+1)*n], x[r*n:(r+1)*n])
		}
		return
	}
	total := rows * n
	for r := 0; r < total; r += n {
		p.bitReverse(x[r : r+n])
	}
	p.forwardMagStages(y, x, total)
}

// ForwardMagBatchRev is ForwardMagBatch for rows whose samples are already
// stored in bit-reversed order — the layout a kernel produces when it fuses
// its load with the reversal permutation (see Rev). Skipping the swap pass
// saves one full walk of the stack; everything after it is the exact
// ForwardMagBatch stage sequence. Requires the plan size to be ≥ 8 (every
// 2^SF transform is).
func (p *FFTPlan) ForwardMagBatchRev(y []float64, x []complex128, rows int) {
	n := p.n
	if len(x) != rows*n || len(y) != rows*n {
		panic(fmt.Sprintf("dsp: ForwardMagBatchRev lengths (%d, %d) != %d rows of plan size %d",
			len(y), len(x), rows, n))
	}
	if rows <= 0 {
		return
	}
	if n < 8 {
		panic(fmt.Sprintf("dsp: ForwardMagBatchRev needs plan size >= 8, have %d", n))
	}
	p.forwardMagStages(y, x, rows*n)
}

// ForwardRev is Forward for input already stored in bit-reversed order (see
// Rev), the layout a caller produces when it fuses its last pass over the
// data with the reversal permutation: it skips the swap pass and runs the
// batchStages sequence, whose butterflies are Forward's own, so the result is
// bit-identical to Forward on the unpermuted input. len(x) must equal the
// plan size.
func (p *FFTPlan) ForwardRev(x []complex128) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("dsp: ForwardRev input length %d != plan size %d", len(x), n))
	}
	if n < 8 {
		p.butterflies(x, n)
		return
	}
	p.batchStages(x, n)
	half := n >> 1
	twf := p.twiddle[:half:half]
	lo := x[:half:half]
	hi := x[half:n:n]
	u, t := lo[0], hi[0]
	lo[0], hi[0] = u+t, u-t
	for i := 1; i < half; i++ {
		u := lo[i]
		t := twf[i] * hi[i]
		lo[i], hi[i] = u+t, u-t
	}
}

// forwardMagStages runs the shared post-reversal stage sequence of the
// batched magnitude transforms over a flat stack of total = rows·n samples.
func (p *FFTPlan) forwardMagStages(y []float64, x []complex128, total int) {
	n := p.n
	p.batchStages(x, total)
	// Final stage fused with the magnitude computation, per row, with the
	// w == 1 butterfly hoisted out of the twiddled loop.
	half := n >> 1
	twf := p.twiddle[:half:half]
	for r := 0; r < total; r += n {
		lo := x[r : r+half : r+half]
		hi := x[r+half : r+n : r+n]
		ylo := y[r : r+half : r+half]
		yhi := y[r+half : r+n : r+n]
		u, t := lo[0], hi[0]
		a, b := u+t, u-t
		ylo[0] = real(a)*real(a) + imag(a)*imag(a)
		yhi[0] = real(b)*real(b) + imag(b)*imag(b)
		for i := 1; i < half; i++ {
			u := lo[i]
			t := twf[i] * hi[i]
			a, b := u+t, u-t
			ylo[i] = real(a)*real(a) + imag(a)*imag(a)
			yhi[i] = real(b)*real(b) + imag(b)*imag(b)
		}
	}
}

// batchStages runs every butterfly stage below the final one (sizes 2 to
// n/2) over a flat stack of total = rows·n bit-reversed samples; n must be
// at least 8. Row boundaries are multiples of every stage size, so each
// stage runs across the whole stack; the arithmetic per butterfly is
// exactly butterflies'.
func (p *FFTPlan) batchStages(x []complex128, total int) {
	n := p.n
	// Size-2 stage: w = 1 everywhere.
	for i := 0; i+1 < total; i += 2 {
		a, b := x[i], x[i+1]
		x[i], x[i+1] = a+b, a-b
	}
	// Size-4 stage: w ∈ {1, -i}.
	for s := 0; s < total; s += 4 {
		a, b := x[s], x[s+2]
		x[s], x[s+2] = a+b, a-b
		c, d := x[s+1], x[s+3]
		t := complex(imag(d), -real(d)) // -i·d
		x[s+1], x[s+3] = c+t, c-t
	}
	// Size-8 stage, fully unrolled: its three twiddles are loop constants
	// shared by every block, and unrolling removes the 3-iteration inner
	// loop's overhead — the per-butterfly arithmetic and operand order are
	// exactly the generic stage's.
	if n >= 16 {
		w1, w2, w3 := p.twStage[0][1], p.twStage[0][2], p.twStage[0][3]
		for s := 0; s < total; s += 8 {
			blk := x[s : s+8 : s+8]
			a, b := blk[0], blk[4]
			blk[0], blk[4] = a+b, a-b
			u, t := blk[1], w1*blk[5]
			blk[1], blk[5] = u+t, u-t
			u, t = blk[2], w2*blk[6]
			blk[2], blk[6] = u+t, u-t
			u, t = blk[3], w3*blk[7]
			blk[3], blk[7] = u+t, u-t
		}
	}
	// Generic stages up to n/2, block-major with three-index subslices so
	// the lo/hi indexing needs no bounds checks, each stage walking its
	// compacted sequential twiddle table. Butterflies of a stage touch
	// disjoint pairs, so the visit order cannot change any row's result.
	si := 1
	for size := 16; size <= n>>1; size <<= 1 {
		half := size >> 1
		tw := p.twStage[si][:half:half]
		si++
		for base := 0; base < total; base += size {
			lo := x[base : base+half : base+half]
			hi := x[base+half : base+size : base+size]
			a, b := lo[0], hi[0]
			lo[0], hi[0] = a+b, a-b
			for i := 1; i < half; i++ {
				w := tw[i]
				t := w * hi[i]
				hi[i] = lo[i] - t
				lo[i] += t
			}
		}
	}
}

// bitReverse applies the plan's bit-reversal permutation in place.
func (p *FFTPlan) bitReverse(x []complex128) {
	for i := 0; i < p.n; i++ {
		j := int(p.rev[i])
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// butterflies runs the iterative Cooley-Tukey stages from size 2 up to and
// including upTo (a power of two ≤ n). The size-2 and size-4 stages are
// unrolled — their twiddles are exactly 1 and −i, so they need no complex
// multiplies — and every later stage skips the w == 1 multiply of its first
// butterfly. Multiplying by (1+0i) or (0−i) is exact in IEEE arithmetic, so
// the specialized stages are bit-identical to the generic loop.
func (p *FFTPlan) butterflies(x []complex128, upTo int) {
	n := p.n
	if upTo >= 2 {
		// Size-2 stage: w = 1 for every butterfly.
		for i := 0; i+1 < n; i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
	}
	if upTo >= 4 {
		// Size-4 stage: w ∈ {1, -i}.
		for s := 0; s < n; s += 4 {
			a, b := x[s], x[s+2]
			x[s], x[s+2] = a+b, a-b
			c, d := x[s+1], x[s+3]
			t := complex(imag(d), -real(d)) // -i·d
			x[s+1], x[s+3] = c+t, c-t
		}
	}
	for size := 8; size <= upTo; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			// k == 0: w = 1, no multiply.
			a, b := x[start], x[start+half]
			x[start], x[start+half] = a+b, a-b
			k := step
			for i := start + 1; i < start+half; i++ {
				t := p.twiddle[k] * x[i+half]
				x[i+half] = x[i] - t
				x[i] += t
				k += step
			}
		}
	}
}
