package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// dechirp3Pass is the legacy reference: Resample, then MulConj, then the
// per-sample direct-evaluation CFO rotation — the three passes DechirpFused
// replaces.
func dechirp3Pass(dst, x []complex128, start, step float64, ref []complex128, phase0, dphase float64) {
	Resample(dst, x, start, step)
	MulConj(dst, dst, ref)
	if phase0 != 0 || dphase != 0 {
		for i := range dst {
			dst[i] *= Cis(phase0 + dphase*float64(i))
		}
	}
}

// TestDechirpFusedMatchesThreePass is the kernel equivalence property test:
// across random starts, steps, rotations and out-of-range overhangs, the
// fused single-pass kernel matches the legacy 3-pass path within 1e-9
// relative error.
func TestDechirpFusedMatchesThreePass(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 256
	x := randomVec(rng, 4*n)
	ref := make([]complex128, n)
	for i := range ref {
		s, c := math.Sincos(2 * math.Pi * float64(i*i) / float64(n))
		ref[i] = complex(c, s)
	}
	got := make([]complex128, n)
	want := make([]complex128, n)

	scale := 0.0
	for _, v := range x {
		if a := cmplx.Abs(v); a > scale {
			scale = a
		}
	}
	for trial := 0; trial < 300; trial++ {
		// Starts span negative offsets, interior positions and overhangs
		// past the end of x; steps include the oversampling-factor cases.
		start := rng.Float64()*float64(5*n) - float64(n)
		step := []float64{1, 2, 4, 8, 1.5, rng.Float64()*7 + 0.5}[trial%6]
		var phase0, dphase float64
		if trial%3 != 0 {
			phase0 = rng.Float64()*2*math.Pi - math.Pi
			dphase = rng.Float64()*0.2 - 0.1
		}
		DechirpFused(got, x, start, step, ref, phase0, dphase)
		dechirp3Pass(want, x, start, step, ref, phase0, dphase)
		for i := range got {
			if e := cmplx.Abs(got[i] - want[i]); e > 1e-9*scale {
				t.Fatalf("trial %d (start=%g step=%g ph0=%g dph=%g) sample %d: fused %v vs 3-pass %v (err %g)",
					trial, start, step, phase0, dphase, i, got[i], want[i], e)
			}
		}
	}
}

// TestDechirpFusedIntegerFastPathExact pins the detection-scan case: with an
// integer start, an integer step and no rotation, the kernel is a strided
// copy times conj(ref) — bit-identical to the general path, including the
// zero fill past the edges of x.
func TestDechirpFusedIntegerFastPathExact(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 64
	x := randomVec(rng, 3*n)
	ref := randomVec(rng, n)
	got := make([]complex128, n)
	want := make([]complex128, n)
	for _, start := range []float64{0, float64(n), float64(2*n + 17), -8} {
		DechirpFused(got, x, start, 4, ref, 0, 0)
		// Reference: explicit strided gather through the interpolator.
		for k := range want {
			v := sampleLinear(x, start+4*float64(k), len(x))
			want[k] = v * cmplx.Conj(ref[k])
		}
		for i := range got {
			if got[i] != want[i] && cmplx.Abs(got[i]-want[i]) > 1e-15 {
				t.Fatalf("start=%g sample %d: got %v, want %v", start, i, got[i], want[i])
			}
		}
	}
}

// TestSampleAtEdgeCases covers sampleLinear's contract at and beyond the
// ends of x: negative positions, the exact last sample, fractional positions
// inside (len(x)-1, len(x)), the frac == 0 fast path, NaN and −Inf.
func TestSampleAtEdgeCases(t *testing.T) {
	x := []complex128{1 + 1i, 2, 3 - 1i, 4i}
	cases := []struct {
		pos  float64
		want complex128
	}{
		{-1e-9, 0},               // just below the start
		{-5, 0},                  // far negative
		{0, 1 + 1i},              // frac==0 at the first sample
		{2, 3 - 1i},              // frac==0 interior
		{3, 4i},                  // exactly the last sample
		{3.0000001, 0},           // inside (len-1, len): silence
		{3.999, 0},               // still inside (len-1, len)
		{4, 0},                   // one past the end
		{2.5, (3 - 1i + 4i) / 2}, // interpolation into the last sample
		{math.NaN(), 0},          // NaN reads as silence, not out of range
		{math.Inf(-1), 0},
	}
	for _, c := range cases {
		if got := sampleLinear(x, c.pos, len(x)); got != c.want && cmplx.Abs(got-c.want) > 1e-12 {
			t.Errorf("sampleLinear(%g) = %v, want %v", c.pos, got, c.want)
		}
	}
	if sampleLinear([]complex128{}, 0, 0) != 0 {
		t.Error("sampleLinear on empty input should be 0")
	}
}

// TestResampleEdgeCases checks Resample keeps sampleLinear's edge semantics when
// the sweep starts negative or runs off the end of x.
func TestResampleEdgeCases(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	dst := make([]complex128, 8)

	// Negative start: leading zeros, then the in-range samples.
	Resample(dst, x, -2, 1)
	want := []complex128{0, 0, 1, 2, 3, 4, 0, 0}
	for i := range dst {
		if dst[i] != want[i] {
			t.Errorf("negative start: dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}

	// Fractional sweep entering (len-1, len): interpolated until the last
	// sample, zero beyond it.
	Resample(dst[:4], x, 2.5, 0.25)
	wantF := []complex128{3.5, 3.75, 4, 0}
	for i, w := range wantF {
		if cmplx.Abs(dst[i]-w) > 1e-12 {
			t.Errorf("tail sweep: dst[%d] = %v, want %v", i, dst[i], w)
		}
	}

	// Exact-integer positions hit the frac==0 fast path: bit-identical to
	// direct indexing.
	Resample(dst[:4], x, 0, 1)
	for i := range x {
		if dst[i] != x[i] {
			t.Errorf("frac==0: dst[%d] = %v, want %v", i, dst[i], x[i])
		}
	}
}

func BenchmarkDechirpKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	n := 256
	x := randomVec(rng, 16*n)
	ref := make([]complex128, n)
	for i := range ref {
		ref[i] = Cis(math.Pi * (float64(i)*float64(i)/float64(n) - float64(i)))
	}
	dst := make([]complex128, n)
	phase0, dphase := -1.2, -2*math.Pi*2.25/float64(n)
	b.Run("fused_frac_cfo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DechirpFused(dst, x, 100.37, 8, ref, phase0, dphase)
		}
	})
	b.Run("fused_int_nocfo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DechirpFused(dst, x, 2048, 8, ref, 0, 0)
		}
	})
	b.Run("legacy_3pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dechirp3Pass(dst, x, 100.37, 8, ref, phase0, dphase)
		}
	})
}
