package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func randRows(rng *rand.Rand, rows, n int) []complex128 {
	x := make([]complex128, rows*n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// TestForwardMagBatchMatchesPerRow pins the batch contract: each row of
// ForwardMagBatch equals ForwardMag on that row, bit for bit.
func TestForwardMagBatchMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		p := MustPlan(n)
		for _, rows := range []int{1, 2, 3, 8} {
			x := randRows(rng, rows, n)
			want := make([]float64, rows*n)
			for r := 0; r < rows; r++ {
				row := append([]complex128(nil), x[r*n:(r+1)*n]...)
				p.ForwardMag(want[r*n:(r+1)*n], row)
			}
			got := make([]float64, rows*n)
			p.ForwardMagBatch(got, append([]complex128(nil), x...), rows)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d rows=%d: batch[%d]=%v, per-row=%v", n, rows, i, got[i], want[i])
				}
			}
		}
	}
}

// TestForwardMagBatchRevMatchesBatch pins the pre-reversed entry point:
// feeding rev-permuted rows must reproduce the plain batch result exactly.
func TestForwardMagBatchRevMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{8, 64, 256} {
		p := MustPlan(n)
		rev := p.Rev()
		for _, rows := range []int{1, 4} {
			x := randRows(rng, rows, n)
			want := make([]float64, rows*n)
			p.ForwardMagBatch(want, append([]complex128(nil), x...), rows)

			perm := make([]complex128, rows*n)
			for r := 0; r < rows; r++ {
				for i := 0; i < n; i++ {
					perm[r*n+i] = x[r*n+int(rev[i])]
				}
			}
			got := make([]float64, rows*n)
			p.ForwardMagBatchRev(got, append([]complex128(nil), perm...), rows)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d rows=%d: rev[%d]=%v, batch=%v", n, rows, i, got[i], want[i])
				}
			}
		}
	}
}

// TestForwardRevMatchesForward pins the reversed-input transform's
// contract: ForwardRev on a bit-reversed copy equals Forward on the original,
// bit for bit. Sizes below 16 have no compacted stage tables, and sizes 1, 2
// and 4 have special stages.
func TestForwardRevMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{1, 2, 4, 8, 16, 256, 4096} {
		p := MustPlan(n)
		x := randRows(rng, 1, n)
		got := make([]complex128, n)
		for i, r := range p.Rev() {
			got[i] = x[r]
		}
		p.ForwardRev(got)
		p.Forward(x)
		for i := range x {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(x[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(x[i])) {
				t.Fatalf("n=%d: ForwardRev[%d]=%v, Forward=%v", n, i, got[i], x[i])
			}
		}
	}
}

// TestForwardMagBatchZeroAllocs pins the batch kernel's allocation-free
// steady state.
func TestForwardMagBatchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n, rows = 256, 8
	p := MustPlan(n)
	x := randRows(rng, rows, n)
	y := make([]float64, rows*n)
	if a := testing.AllocsPerRun(50, func() { p.ForwardMagBatch(y, x, rows) }); a != 0 {
		t.Fatalf("ForwardMagBatch allocates %v/op", a)
	}
}

func BenchmarkForwardMagBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	const n, rows = 256, 16
	p := MustPlan(n)
	x := randRows(rng, rows, n)
	y := make([]float64, rows*n)
	b.Run("per-row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < rows; r++ {
				p.ForwardMag(y[r*n:(r+1)*n], x[r*n:(r+1)*n])
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.ForwardMagBatch(y, x, rows)
		}
	})
}
