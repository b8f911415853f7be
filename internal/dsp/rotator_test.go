package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

// TestRotatorMatchesDirectEvaluation pins the kernel-layer accuracy
// contract: over runs much longer than any symbol, the phase-recurrence
// oscillator stays within 1e-9 relative error of the direct per-sample
// Cis evaluation it replaces.
func TestRotatorMatchesDirectEvaluation(t *testing.T) {
	cases := []struct {
		name           string
		phase0, dphase float64
	}{
		{"zero", 0, 0},
		{"slow_positive", 0.3, 1e-4},
		{"cfo_like", -1.7, -2 * math.Pi * 2.25 / 256},
		{"fast_negative", 2.9, -1.3},
		{"near_pi_step", 0.1, math.Pi - 1e-3},
	}
	const steps = 1 << 16
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rot := NewRotator(c.phase0, c.dphase)
			worst := 0.0
			for k := 0; k < steps; k++ {
				got := rot.Next()
				want := Cis(c.phase0 + c.dphase*float64(k))
				// |want| = 1, so absolute error is relative error.
				if e := cmplx.Abs(got - want); e > worst {
					worst = e
				}
			}
			if worst > 1e-9 {
				t.Errorf("max relative error %g over %d steps, want <= 1e-9", worst, steps)
			}
		})
	}
}

// TestRotatorRenormalizationResets checks the recurrence is re-seeded
// exactly at block boundaries: the value right after a renormalization is
// the direct evaluation, bit for bit.
func TestRotatorRenormalizationResets(t *testing.T) {
	phase0, dphase := 0.37, 0.01183
	rot := NewRotator(phase0, dphase)
	for k := 0; k < 4*RotatorRenormBlock; k++ {
		got := rot.Next()
		if k%RotatorRenormBlock == 0 {
			if want := Cis(phase0 + dphase*float64(k)); got != want {
				t.Fatalf("step %d (block boundary): got %v, want exact %v", k, got, want)
			}
		}
	}
}

func BenchmarkRotator(b *testing.B) {
	dst := make([]complex128, 256)
	b.Run("recurrence", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rot := NewRotator(0.3, 0.01)
			for k := range dst {
				dst[k] = rot.Next()
			}
		}
	})
	b.Run("direct_cis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range dst {
				dst[k] = Cis(0.3 + 0.01*float64(k))
			}
		}
	})
}
