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
	p.ForwardRev(x)
}

// ForwardRev is Forward for input already stored in bit-reversed order (see
// Rev), the layout a caller produces when it fuses its last pass over the
// data with the reversal permutation: it skips the swap pass, so the result
// is bit-identical to Forward on the unpermuted input. len(x) must equal the
// plan size.
func (p *FFTPlan) ForwardRev(x []complex128) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("dsp: ForwardRev input length %d != plan size %d", len(x), n))
	}
	if n == 1 {
		return
	}
	p.stages(x, n)
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

// ForwardMag computes y[i] = |FFT(x)[i]|²: it is ForwardMagBatch of one row.
// x is consumed as scratch. len(y) and len(x) must equal the plan size.
func (p *FFTPlan) ForwardMag(y []float64, x []complex128) {
	p.ForwardMagBatch(y, x, 1)
}

// ForwardMagBatch computes the squared-magnitude spectra of rows stacked
// transforms: x and y hold rows contiguous segments of the plan size, and
// y[r·n:(r+1)·n] = |FFT(x[r·n:(r+1)·n])|². Each row is bit-reversed, then the
// whole stack runs through ForwardMagBatchRev. x is consumed as scratch.
func (p *FFTPlan) ForwardMagBatch(y []float64, x []complex128, rows int) {
	p.checkRows("ForwardMagBatch", y, x, rows)
	for r := 0; r < rows*p.n; r += p.n {
		p.bitReverse(x[r : r+p.n])
	}
	p.ForwardMagBatchRev(y, x, rows)
}

// ForwardMagBatchRev is ForwardMagBatch for rows whose samples are already
// stored in bit-reversed order — the layout a kernel produces when it fuses
// its load with the reversal permutation (see Rev). The stages below the
// last run across the whole stack, so each twiddle is loaded once for every
// block of every row, and the final stage squares its butterfly outputs in
// registers instead of storing the spectrum. Rows are independent, so
// interleaving stages across rows cannot change any row's result.
func (p *FFTPlan) ForwardMagBatchRev(y []float64, x []complex128, rows int) {
	p.checkRows("ForwardMagBatchRev", y, x, rows)
	n, total := p.n, rows*p.n
	if n == 1 {
		for i, v := range x {
			y[i] = real(v)*real(v) + imag(v)*imag(v)
		}
		return
	}
	p.stages(x, total)
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

// checkRows panics unless x and y each hold rows transforms of the plan size.
func (p *FFTPlan) checkRows(name string, y []float64, x []complex128, rows int) {
	if rows < 0 || len(x) != rows*p.n || len(y) != rows*p.n {
		panic(fmt.Sprintf("dsp: %s lengths (%d, %d) != %d rows of plan size %d",
			name, len(y), len(x), rows, p.n))
	}
}

// stages runs every butterfly stage below the final one (sizes 2 to n/2)
// over a flat stack of total = rows·n bit-reversed samples. Row boundaries
// are multiples of every stage size, so each stage runs across the whole
// stack. The size-2 and size-4 stages are unrolled: their twiddles are
// exactly 1 and −i, and multiplying by either is exact in IEEE arithmetic.
// Every later stage skips the w == 1 multiply of its first butterfly.
func (p *FFTPlan) stages(x []complex128, total int) {
	n := p.n
	if n >= 4 {
		// Size-2 stage: w = 1 everywhere.
		for i := 0; i+1 < total; i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
	}
	if n >= 8 {
		// Size-4 stage: w ∈ {1, -i}.
		for s := 0; s < total; s += 4 {
			a, b := x[s], x[s+2]
			x[s], x[s+2] = a+b, a-b
			c, d := x[s+1], x[s+3]
			t := complex(imag(d), -real(d)) // -i·d
			x[s+1], x[s+3] = c+t, c-t
		}
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
