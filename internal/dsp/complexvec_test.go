package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulConj(t *testing.T) {
	a := []complex128{1 + 2i, 3 - 1i, -2 + 0.5i}
	b := []complex128{2 - 1i, 1 + 1i, 0 + 3i}
	dst := make([]complex128, len(a))
	MulConj(dst, a, b)
	for i := range a {
		want := a[i] * cmplx.Conj(b[i])
		if cmplx.Abs(dst[i]-want) > 1e-12 {
			t.Errorf("i=%d: got %v, want %v", i, dst[i], want)
		}
	}
}

func TestMulConjAliasing(t *testing.T) {
	a := []complex128{1 + 2i, 3 - 1i}
	b := []complex128{2 - 1i, 1 + 1i}
	want := make([]complex128, len(a))
	MulConj(want, a, b)
	MulConj(a, a, b) // dst aliases a
	for i := range a {
		if cmplx.Abs(a[i]-want[i]) > 1e-12 {
			t.Errorf("aliased MulConj differs at %d", i)
		}
	}
}

// energy returns the sum of |x[i]|².
func energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

func TestMagSq(t *testing.T) {
	x := []complex128{3 + 4i, 1 - 1i}
	dst := make([]float64, 2)
	MagSq(dst, x)
	if dst[0] != 25 || math.Abs(dst[1]-2) > 1e-12 {
		t.Errorf("MagSq = %v", dst)
	}
}

func TestCisUnitCircle(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) || math.Abs(theta) > 1e6 {
			return true
		}
		v := Cis(theta)
		return math.Abs(cmplx.Abs(v)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScale(t *testing.T) {
	x := []complex128{1 + 1i, 2}
	Scale(x, 2)
	if x[0] != 2+2i || x[1] != 4 {
		t.Errorf("Scale result %v", x)
	}
}

func TestSampleAtEndpoints(t *testing.T) {
	x := []complex128{1, 2, 3}
	cases := []struct {
		pos  float64
		want complex128
	}{
		{0, 1}, {1, 2}, {2, 3}, {0.5, 1.5}, {1.25, 2.25},
		{-0.1, 0}, {2.5, 0}, {3, 0},
	}
	for _, c := range cases {
		if got := sampleLinear(x, c.pos, len(x)); cmplx.Abs(got-c.want) > 1e-12 {
			t.Errorf("sampleLinear(%g) = %v, want %v", c.pos, got, c.want)
		}
	}
	if sampleLinear(nil, 0, 0) != 0 {
		t.Error("sampleLinear(nil) should be 0")
	}
}

func TestResampleIntegerStepMatchesDecimation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomVec(rng, 64)
	dst := make([]complex128, 16)
	Resample(dst, x, 0, 4)
	for k := range dst {
		if dst[k] != x[4*k] {
			t.Errorf("k=%d: got %v, want %v", k, dst[k], x[4*k])
		}
	}
}

func TestResampleLinearRamp(t *testing.T) {
	// A linear ramp is reproduced exactly by linear interpolation.
	x := make([]complex128, 32)
	for i := range x {
		x[i] = complex(float64(i), -float64(i))
	}
	dst := make([]complex128, 10)
	Resample(dst, x, 1.5, 2.25)
	for k := range dst {
		pos := 1.5 + 2.25*float64(k)
		want := complex(pos, -pos)
		if cmplx.Abs(dst[k]-want) > 1e-9 {
			t.Errorf("k=%d: got %v, want %v", k, dst[k], want)
		}
	}
}

func TestAddNoisePower(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200000
	x := make([]complex128, n)
	AddNoise(x, 4.0, rng)
	p := energy(x) / float64(len(x))
	if math.Abs(p-4) > 0.1 {
		t.Errorf("noise power %g, want ≈4", p)
	}
	// Zero/negative power is a no-op.
	y := []complex128{1 + 1i}
	AddNoise(y, 0, rng)
	AddNoise(y, -1, rng)
	if y[0] != 1+1i {
		t.Error("AddNoise with non-positive power should not modify input")
	}
}

func TestDBConversions(t *testing.T) {
	if math.Abs(DBToLinear(10)-10) > 1e-12 {
		t.Error("DBToLinear(10) != 10")
	}
	f := func(a, b float64) bool {
		if math.Abs(a) > 100 || math.Abs(b) > 100 {
			return true
		}
		// Adding decibels multiplies linear ratios.
		want := DBToLinear(a) * DBToLinear(b)
		return math.Abs(DBToLinear(a+b)-want) <= 1e-12*want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
