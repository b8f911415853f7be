package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func constSignal(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// power returns the mean of |x[i]|².
func power(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e / float64(len(x))
}

func TestFlatChannel(t *testing.T) {
	f := Flat{Gain: 2i}
	out := f.Apply([]complex128{1, 1 + 1i}, 1e6, 0)
	if out[0] != 2i || out[1] != -2+2i {
		t.Errorf("flat channel output %v", out)
	}
}

func TestFadingAveragePowerGainNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := NewFading(ETUProfile, 5, 1e6, rng)
	// Sample the tap processes' summed power gain over 100 s.
	const samples = 5000
	var g float64
	for s := 0; s < samples; s++ {
		for _, tp := range f.taps {
			v := tp.gainAt(100 * float64(s) / samples)
			g += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	g /= samples
	if g < 0.7 || g > 1.3 {
		t.Errorf("average power gain %g, want ≈1", g)
	}
}

func TestFadingOutputLengthCoversDelaySpread(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := NewFading(ETUProfile, 5, 1e6, rng)
	in := constSignal(1000)
	out := f.Apply(in, 1e6, 0)
	// ETU max excess delay is 5 µs = 5 samples at 1 Msps.
	if len(out) < len(in)+5 {
		t.Errorf("output length %d does not cover the delay spread", len(out))
	}
}

func TestFadingEnvelopeVariesOverTime(t *testing.T) {
	// With 5 Hz Doppler the envelope must change substantially over
	// seconds — the channel fluctuation the paper stresses in §8.5.
	rng := rand.New(rand.NewSource(22))
	f := NewFading(ETUProfile, 5, 1e6, rng)
	in := constSignal(64)
	var powers []float64
	for s := 0; s < 40; s++ {
		start := s * 25_000_000 / 40 // spread over 25 s
		out := f.Apply(in, 1e6, start)
		powers = append(powers, power(out[:64]))
	}
	minP, maxP := math.Inf(1), 0.0
	for _, p := range powers {
		minP = math.Min(minP, p)
		maxP = math.Max(maxP, p)
	}
	if maxP < 2*minP {
		t.Errorf("envelope variation too small: min %g max %g", minP, maxP)
	}
}

func TestFadingIsDeterministicGivenSeed(t *testing.T) {
	in := constSignal(256)
	f1 := NewFading(ETUProfile, 5, 1e6, rand.New(rand.NewSource(23)))
	f2 := NewFading(ETUProfile, 5, 1e6, rand.New(rand.NewSource(23)))
	o1 := f1.Apply(in, 1e6, 1000)
	o2 := f2.Apply(in, 1e6, 1000)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("non-deterministic output at %d", i)
		}
	}
}

func TestFadingZeroDopplerIsTimeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := NewFading([]Tap{{0, 0}}, 0, 1e6, rng)
	in := constSignal(128)
	a := f.Apply(in, 1e6, 0)
	b := f.Apply(in, 1e6, 10_000_000)
	for i := range in {
		if cmplx.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("zero-Doppler channel changed over time")
		}
	}
}

func TestFadingRayleighEnvelopeStatistics(t *testing.T) {
	// The single-tap envelope should be approximately Rayleigh: mean
	// power 1, and power below the mean ~63% of the time.
	rng := rand.New(rand.NewSource(25))
	f := NewFading([]Tap{{0, 0}}, 50, 1e6, rng)
	var below, total int
	var sum float64
	for s := 0; s < 4000; s++ {
		t0 := float64(s) * 0.05
		g := f.taps[0].gainAt(t0)
		p := real(g)*real(g) + imag(g)*imag(g)
		sum += p
		if p < 1 {
			below++
		}
		total++
	}
	meanP := sum / float64(total)
	if meanP < 0.75 || meanP > 1.3 {
		t.Errorf("mean tap power %g, want ≈1", meanP)
	}
	frac := float64(below) / float64(total)
	if frac < 0.5 || frac < 0.45 || frac > 0.8 {
		t.Errorf("P(power<mean) = %g, want ≈0.63", frac)
	}
}

func TestETUProfileMatchesSpec(t *testing.T) {
	if len(ETUProfile) != 9 {
		t.Fatalf("ETU has %d taps, want 9", len(ETUProfile))
	}
	if ETUProfile[8].DelayNs != 5000 {
		t.Errorf("last ETU tap delay %g ns, want 5000", ETUProfile[8].DelayNs)
	}
	if ETUProfile[3].PowerDB != 0 {
		t.Errorf("tap 4 power %g, want 0 dB", ETUProfile[3].PowerDB)
	}
}

func TestFractionalDelayInterpolation(t *testing.T) {
	// A single tap at 0.5 samples splits energy between adjacent samples.
	rng := rand.New(rand.NewSource(26))
	f := NewFading([]Tap{{500_000, 0}}, 0, 1e3, rng) // 0.5 samples at 1 kSps
	in := []complex128{1, 0, 0, 0}
	out := f.Apply(in, 1e3, 0)
	if cmplx.Abs(out[0]) == 0 || cmplx.Abs(out[1]) == 0 {
		t.Error("fractional delay should spread the impulse over two samples")
	}
	if cmplx.Abs(out[0]-out[1]) > 1e-9 {
		t.Error("0.5-sample delay should split the impulse evenly")
	}
}
