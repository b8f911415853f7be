package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference transform used to validate the FFT.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// fft returns the forward DFT of x in a new slice, leaving x untouched.
func fft(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	MustPlan(len(x)).Forward(out)
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		x := randomVec(rng, n)
		got := fft(x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g vs naive DFT", n, e)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// An impulse transforms to a flat spectrum of ones.
	n := 128
	x := make([]complex128, n)
	x[0] = 1
	y := fft(x)
	for k, v := range y {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d: got %v, want 1", k, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex tone at bin k concentrates all energy in bin k.
	n := 256
	for _, k := range []int{0, 1, 17, 255} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = Cis(2 * math.Pi * float64(k) * float64(i) / float64(n))
		}
		y := fft(x)
		mags := make([]float64, n)
		MagSq(mags, y)
		idx, mag := 0, mags[0]
		for i, m := range mags {
			if m > mag {
				idx, mag = i, m
			}
		}
		if idx != k {
			t.Errorf("tone k=%d: peak at %d", k, idx)
		}
		if math.Abs(math.Sqrt(mag)-float64(n)) > 1e-6 {
			t.Errorf("tone k=%d: peak magnitude %g, want %d", k, math.Sqrt(mag), n)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	// Parseval: sum |x|² == (1/n) sum |X|². Checked as a property.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(10))
		x := randomVec(rng, n)
		tx := energy(x)
		fx := energy(fft(x)) / float64(n)
		return math.Abs(tx-fx) < 1e-6*tx+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(8))
		a := randomVec(rng, n)
		b := randomVec(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + 2*b[i]
		}
		fa, fb, fs := fft(a), fft(b), fft(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+2*fb[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestForwardMagMatchesForwardPlusMagSq checks the fused spectrum-magnitude
// path against the two-pass reference. For sizes ≥ 8 the final fused stage
// runs the same stored-twiddle butterflies as Forward, so the match is
// bit-exact; the tiny sizes are held to 1e-12 relative.
func TestForwardMagMatchesForwardPlusMagSq(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 4, 8, 64, 256, 1024} {
		x := randomVec(rng, n)
		p := MustPlan(n)

		spec := make([]complex128, n)
		copy(spec, x)
		p.Forward(spec)
		want := make([]float64, n)
		MagSq(want, spec)

		buf := make([]complex128, n)
		copy(buf, x)
		got := make([]float64, n)
		p.ForwardMag(got, buf)

		for i := range got {
			if n >= 8 {
				if got[i] != want[i] {
					t.Fatalf("n=%d bin %d: ForwardMag %v != Forward+MagSq %v", n, i, got[i], want[i])
				}
			} else if math.Abs(got[i]-want[i]) > 1e-12*(want[i]+1) {
				t.Fatalf("n=%d bin %d: ForwardMag %v vs Forward+MagSq %v", n, i, got[i], want[i])
			}
		}
	}
}

// butterfliesOracle is a standalone in-place radix-2 transform, the
// reference the plan's stage engine is pinned to: the bit-reversal pass,
// unrolled size-2 and size-4 stages with their exact twiddles 1 and −i,
// then every stage up to n read through the full twiddle table at stride
// n/size, with no compacted tables and no stacked rows.
func butterfliesOracle(p *FFTPlan, x []complex128) {
	n := p.n
	p.bitReverse(x)
	if n >= 2 {
		for i := 0; i+1 < n; i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
	}
	if n >= 4 {
		for s := 0; s < n; s += 4 {
			a, b := x[s], x[s+2]
			x[s], x[s+2] = a+b, a-b
			c, d := x[s+1], x[s+3]
			t := complex(imag(d), -real(d))
			x[s+1], x[s+3] = c+t, c-t
		}
	}
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
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

// TestTransformsMatchButterfliesOracle pins Forward, ForwardMag and
// ForwardMagBatch to the oracle. From n = 8 up the twiddle bits and operand
// order are the oracle's, so the match is bit for bit. At n = 4 the final
// stage multiplies by the stored twiddle ≈ −i instead of exactly −i, which
// moves the result by a few ulps; n = 1 and 2 have no twiddled stage.
func TestTransformsMatchButterfliesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 1; n <= 4096; n <<= 1 {
		p := MustPlan(n)
		const rows = 3
		x := randRows(rng, rows, n)
		want := make([]complex128, rows*n)
		copy(want, x)
		wantMag := make([]float64, rows*n)
		for r := 0; r < rows; r++ {
			butterfliesOracle(p, want[r*n:(r+1)*n])
		}
		MagSq(wantMag, want)

		fwd := append([]complex128(nil), x[:n]...)
		p.Forward(fwd)
		mag := make([]float64, n)
		p.ForwardMag(mag, append([]complex128(nil), x[:n]...))
		batch := make([]float64, rows*n)
		p.ForwardMagBatch(batch, append([]complex128(nil), x...), rows)

		for i := range fwd {
			checkOracle(t, n, "Forward re", real(fwd[i]), real(want[i]))
			checkOracle(t, n, "Forward im", imag(fwd[i]), imag(want[i]))
			checkOracle(t, n, "ForwardMag", mag[i], wantMag[i])
		}
		for i := range batch {
			checkOracle(t, n, "ForwardMagBatch", batch[i], wantMag[i])
		}
	}
}

// checkOracle requires got == want bit for bit for n ≥ 8 and
// |got − want| ≤ 1e-15·max(1, |want|) below.
func checkOracle(t *testing.T, n int, what string, got, want float64) {
	t.Helper()
	if n >= 8 {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d %s: %v, oracle %v", n, what, got, want)
		}
		return
	}
	if math.Abs(got-want) > 1e-15*math.Max(1, math.Abs(want)) {
		t.Fatalf("n=%d %s: %v, oracle %v (diff %g)", n, what, got, want, got-want)
	}
}

func TestNewFFTPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 100} {
		if _, err := NewFFTPlan(n); err == nil {
			t.Errorf("NewFFTPlan(%d): expected error", n)
		}
	}
}

func TestPlanCacheReuse(t *testing.T) {
	a := MustPlan(512)
	b := MustPlan(512)
	if a != b {
		t.Error("expected cached plan to be reused")
	}
	if a.Size() != 512 {
		t.Errorf("plan size %d, want 512", a.Size())
	}
}

func BenchmarkFFT256(b *testing.B)  { benchFFT(b, 256) }
func BenchmarkFFT1024(b *testing.B) { benchFFT(b, 1024) }

func BenchmarkForwardMag256(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randomVec(rng, 256)
	p := MustPlan(256)
	buf := make([]complex128, 256)
	y := make([]float64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.ForwardMag(y, buf)
	}
}

func benchFFT(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(3))
	x := randomVec(rng, n)
	p := MustPlan(n)
	buf := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Forward(buf)
	}
}
