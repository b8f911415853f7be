package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameMedian reports whether two medians agree bit-for-bit, treating the
// signs of zero as equal (the one place the selector's docs allow a
// difference).
func sameMedian(a, b float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestSelectorMatchesPercentile pins the selector's contract: for NaN-free
// input of any shape, Selector.Median equals Percentile(x, 50) bit for bit.
func TestSelectorMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sel Selector
	gens := map[string]func(n int) []float64{
		"normal": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64() * 1e6
			}
			return x
		},
		"magsq": func(n int) []float64 {
			// The hot-path shape: non-negative |FFT|^2 values.
			x := make([]float64, n)
			for i := range x {
				v := rng.NormFloat64()
				x[i] = v * v
			}
			return x
		},
		"duplicates": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(rng.Intn(4))
			}
			return x
		},
		"constant": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = 3.25
			}
			return x
		},
		"sorted": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(i) - float64(n)/3
			}
			return x
		},
		"reversed": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(n - i)
			}
			return x
		},
		"signed_zeros": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				switch rng.Intn(3) {
				case 0:
					x[i] = 0.0
				case 1:
					x[i] = math.Copysign(0, -1)
				default:
					x[i] = rng.NormFloat64()
				}
			}
			return x
		},
		"extremes": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				switch rng.Intn(5) {
				case 0:
					x[i] = math.Inf(1)
				case 1:
					x[i] = math.Inf(-1)
				case 2:
					x[i] = 5e-324 // smallest subnormal
				default:
					x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
				}
			}
			return x
		},
	}
	sizes := []int{1, 2, 3, 7, 31, 32, 33, 100, 256, 1023, 4096}
	for name, gen := range gens {
		for _, n := range sizes {
			for trial := 0; trial < 5; trial++ {
				x := gen(n)
				want := Percentile(x, 50)
				got := sel.Median(x)
				if !sameMedian(got, want) {
					t.Fatalf("%s n=%d trial=%d: Selector.Median=%v (bits %x), Percentile=%v (bits %x)",
						name, n, trial, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestMedianScratchDistributeMatchesPercentile pins Selector.Median against
// Percentile(x, 50) bit for bit on extreme inputs (±Inf, subnormals, a
// 600-decade spread), through a fresh selector and one reused across every
// input, whose scratch is then often larger than needed.
func TestMedianScratchDistributeMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := []func(n int) []float64{
		func(n int) []float64 { // normal
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64() * 1e6
			}
			return x
		},
		func(n int) []float64 { // magsq, the scan's shape
			x := make([]float64, n)
			for i := range x {
				v := rng.NormFloat64()
				x[i] = v * v
			}
			return x
		},
		func(n int) []float64 { // duplicates
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(rng.Intn(4))
			}
			return x
		},
		func(n int) []float64 { // constant
			x := make([]float64, n)
			for i := range x {
				x[i] = 3.25
			}
			return x
		},
		func(n int) []float64 { // extremes
			x := make([]float64, n)
			for i := range x {
				switch rng.Intn(5) {
				case 0:
					x[i] = math.Inf(1)
				case 1:
					x[i] = math.Inf(-1)
				case 2:
					x[i] = 5e-324
				default:
					x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
				}
			}
			return x
		},
	}
	var reused Selector
	for gi, gen := range gens {
		for _, n := range []int{1, 2, 3, 15, 16, 17, 33, 256, 1023} {
			for trial := 0; trial < 5; trial++ {
				x := gen(n)
				want := Percentile(x, 50)
				var fresh Selector
				for si, sel := range []*Selector{&fresh, &reused} {
					if got := sel.Median(x); !sameMedian(got, want) {
						t.Fatalf("gen=%d n=%d trial=%d selector %d: Median=%v (bits %x), Percentile=%v (bits %x)",
							gi, n, trial, si, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestSelectPairTerminatesOnNaN pins the distribute selection's escape hatch:
// all-NaN and mixed-NaN inputs terminate (result unspecified, as for every
// median in this package).
func TestSelectPairTerminatesOnNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sel Selector
	for _, n := range []int{17, 64, 256} {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.NaN()
		}
		sel.Median(x)
		sel.MedianArgMin(x, 1)
		for i := range x {
			if rng.Intn(2) == 0 {
				x[i] = rng.NormFloat64()
			}
		}
		sel.Median(x)
		sel.MedianArgMin(x, 1)
	}
}

// TestSelectorMedianAbsResiduals pins the residual form against the
// sort-based oracle over the residuals.
func TestSelectorMedianAbsResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sel Selector
	for _, n := range []int{1, 2, 9, 64, 257} {
		x := make([]float64, n)
		fit := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			fit[i] = rng.NormFloat64()
		}
		d := make([]float64, n)
		for i := range d {
			d[i] = math.Abs(x[i] - fit[i])
		}
		want := Percentile(d, 50)
		got := sel.MedianAbsResiduals(x, fit)
		if !sameMedian(got, want) {
			t.Fatalf("n=%d: Selector %v vs reference %v", n, got, want)
		}
	}
	if got := sel.MedianAbsResiduals(nil, nil); got != 0 {
		t.Fatalf("empty input: got %v, want 0", got)
	}
}

// TestSelectorZeroSteadyStateAllocs pins the pool contract: after the first
// call sized the key buffer, Median, MedianAbsResiduals and MedianArgMin
// allocate nothing.
func TestSelectorZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var sel Selector
	x := make([]float64, 256)
	fit := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
		fit[i] = rng.NormFloat64()
	}
	sel.Median(x) // size the buffer
	if n := testing.AllocsPerRun(100, func() { sel.Median(x) }); n != 0 {
		t.Fatalf("Selector.Median allocates %v/op in steady state", n)
	}
	if n := testing.AllocsPerRun(100, func() { sel.MedianAbsResiduals(x, fit) }); n != 0 {
		t.Fatalf("Selector.MedianAbsResiduals allocates %v/op in steady state", n)
	}
	if n := testing.AllocsPerRun(100, func() { sel.MedianArgMin(x, 0.5) }); n != 0 {
		t.Fatalf("Selector.MedianArgMin allocates %v/op in steady state", n)
	}
}

// BenchmarkMedianSelector contrasts the selector with the allocating
// sort-based oracle on the signal-vector lengths the decode loop sees.
func BenchmarkMedianSelector(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{256, 1024} {
		x := make([]float64, n)
		for i := range x {
			v := rng.NormFloat64()
			x[i] = v * v
		}
		b.Run(fmt.Sprintf("selector/n=%d", n), func(b *testing.B) {
			var sel Selector
			sel.Median(x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sel.Median(x)
			}
		})
		b.Run(fmt.Sprintf("sorted/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Percentile(x, 50)
			}
		})
	}
}

// TestMedianArgMinMatchesPercentile pins the hinted selection: under every
// hint — useful, useless, infinite, or NaN — MedianArgMin returns the same
// bits as Percentile(x, 50), its input is untouched, and argMin is the first
// index of the minimum. The pivot sequence may differ wildly between hints;
// the order statistics must not.
func TestMedianArgMinMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gens := []func(n int) []float64{
		func(n int) []float64 { // magsq, the scan's shape
			x := make([]float64, n)
			for i := range x {
				v := rng.NormFloat64()
				x[i] = v * v
			}
			return x
		},
		func(n int) []float64 { // duplicates, including ties at the minimum
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(rng.Intn(4))
			}
			return x
		},
		func(n int) []float64 { // constant
			x := make([]float64, n)
			for i := range x {
				x[i] = 3.25
			}
			return x
		},
	}
	var sel Selector
	for gi, gen := range gens {
		for _, n := range []int{1, 2, 15, 16, 17, 33, 256, 1023} {
			for trial := 0; trial < 5; trial++ {
				x := gen(n)
				want := Percentile(x, 50)
				wantArg := 0
				for i, v := range x {
					if v < x[wantArg] {
						wantArg = i
					}
				}
				orig := append([]float64(nil), x...)
				hints := []float64{
					want,                 // perfect
					want * 1.02,          // the neighboring-window case
					0,                    // at or below the minimum
					math.Inf(1),          // everything below the pivot
					math.Inf(-1),         // nothing below the pivot
					math.NaN(),           // no hint: plain Median
					x[rng.Intn(len(x))],  // an arbitrary element
					-x[rng.Intn(len(x))], // likely below the minimum
				}
				for hi, hint := range hints {
					got, arg := sel.MedianArgMin(x, hint)
					if !sameMedian(got, want) {
						t.Fatalf("gen=%d n=%d trial=%d hint[%d]=%v: MedianArgMin=%v (bits %x), Percentile=%v (bits %x)",
							gi, n, trial, hi, hint, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if arg != wantArg {
						t.Fatalf("gen=%d n=%d trial=%d hint[%d]=%v: argMin=%d, want first minimum at %d",
							gi, n, trial, hi, hint, arg, wantArg)
					}
					for i := range x {
						if x[i] != orig[i] {
							t.Fatalf("gen=%d n=%d trial=%d hint[%d]: input modified at %d", gi, n, trial, hi, i)
						}
					}
				}
			}
		}
	}
}

// TestMedianArgMinSeededChain replays the detection scan's usage: each
// median seeds the next call's hint over a drifting noise floor, and every
// result must still match Percentile exactly.
func TestMedianArgMinSeededChain(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var sel Selector
	hint := 0.0
	for win := 0; win < 200; win++ {
		scale := 1 + 5*math.Sin(float64(win)/13)*math.Sin(float64(win)/13)
		x := make([]float64, 256)
		for i := range x {
			v := rng.NormFloat64() * scale
			x[i] = v * v
		}
		want := Percentile(x, 50)
		got, _ := sel.MedianArgMin(x, hint)
		if !sameMedian(got, want) {
			t.Fatalf("window %d (hint %v): MedianArgMin=%v, Percentile=%v", win, hint, got, want)
		}
		hint = got
	}
}
