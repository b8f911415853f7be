package lora

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"tnb/internal/dsp"
)

// qRelBound is the error the factored Q search may add against the per-row
// path, relative to the largest magnitude in the compared spectrum: the
// time-domain sum and the factored rotation reorder the rounding of a sum of
// 10·antennas rows, which measures ~2e-15 here.
const qRelBound = 1e-13

// sameBits reports whether two complex values are equal bit for bit,
// telling +0 from −0.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// maxAbsDiff returns the largest |got[i] − want[i]| and the largest
// |want[i]|.
func maxAbsDiff(got, want []complex128) (diff, scale float64) {
	for i := range want {
		diff = math.Max(diff, cmplx.Abs(got[i]-want[i]))
		scale = math.Max(scale, cmplx.Abs(want[i]))
	}
	return diff, scale
}

// TestPreambleRowsMatchDechirpInto checks the factored Q rows: every row
// DechirpPreamble stores must be, bit for bit, the samples DechirpInto or
// DechirpDownInto produce for that symbol with zero CFO, and the spectra
// PreambleSpectra sums under a CFO rotation must equal the sums of per-row
// DechirpInto/DechirpDownInto + Forward within qRelBound of their peak. The
// starts cover the integer path with rows overhanging the end of the input
// (unrotated zeros there), the interpolating path, and rows before sample 0.
func TestPreambleRowsMatchDechirpInto(t *testing.T) {
	worst := 0.0
	for _, osf := range []int{1, 2, 8} {
		p := MustParams(7, 4, 125e3, osf)
		d := NewDemodulator(p)
		n, sym := p.N(), p.SymbolSamples()
		rng := rand.New(rand.NewSource(int64(osf)))
		ants := make([][]complex128, 2)
		for a := range ants {
			ants[a] = make([]complex128, 14*sym+3)
			for i := range ants[a] {
				ants[a][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			// Exact zeros inside the input: rotated like any sample.
			for i := 0; i < sym; i++ {
				ants[a][5*sym+i] = 0
			}
		}
		end := float64(len(ants[0]))
		starts := []float64{0, 3.25, float64(2 * osf), end - 11*float64(sym) - float64(sym/2), // integer, last row straddles the end
			end - 11*float64(sym) - 0.5, -2 * float64(sym), -3*float64(sym) + 0.75}
		plan := dsp.MustPlan(n)
		buf := make([]complex128, n)
		want, wantDown := make([]complex128, n), make([]complex128, n)
		up, down := make([]complex128, n), make([]complex128, n)
		var pr PreambleRows
		var rot PreambleRotation
		for _, start := range starts {
			d.DechirpPreamble(&pr, ants, start)
			row := 0
			for _, k := range qSymbols {
				s := start + float64(k*sym)
				if s < 0 {
					continue
				}
				for _, ant := range ants {
					if k < PreambleUpchirps {
						d.DechirpInto(buf, ant, s, 0, k)
					} else {
						d.DechirpDownInto(buf, ant, s, 0, k)
					}
					got := pr.data[row*n : (row+1)*n]
					for i, v := range buf {
						if !sameBits(got[i], v) {
							t.Fatalf("OSF %d start %v symbol %d: sample %d = %v, DechirpInto %v",
								osf, start, k, i, got[i], v)
						}
					}
					row++
				}
			}
			if row != pr.rows {
				t.Fatalf("start %v: %d rows, want %d", start, pr.rows, row)
			}
			for _, cfo := range []float64{0, -1.8125, 0.3, 2.5} {
				for i := range want {
					want[i], wantDown[i] = 0, 0
				}
				for _, k := range qSymbols {
					s := start + float64(k*sym)
					if s < 0 {
						continue
					}
					for _, ant := range ants {
						sum := want
						if k < PreambleUpchirps {
							d.DechirpInto(buf, ant, s, cfo, k)
						} else {
							d.DechirpDownInto(buf, ant, s, cfo, k)
							sum = wantDown
						}
						plan.Forward(buf)
						for i := range sum {
							sum[i] += buf[i]
						}
					}
				}
				d.BuildPreambleRotation(&rot, cfo)
				d.PreambleSpectra(up, down, &pr, &rot)
				for _, c := range [][2][]complex128{{up, want}, {down, wantDown}} {
					diff, scale := maxAbsDiff(c[0], c[1])
					if diff > qRelBound*scale {
						t.Fatalf("OSF %d start %v cfo %v: sums differ from per-row Forward by %g of peak %g",
							osf, start, cfo, diff, scale)
					}
					if scale > 0 {
						worst = math.Max(worst, diff/scale)
					}
				}
			}
		}
	}
	t.Logf("largest error %.3g of the spectrum peak (bound %g)", worst, qRelBound)
}

// TestSweepSpectraMatchPreambleSpectra checks the symbol-axis sweep: for
// each of its 16 hypotheses c + i/16, SweepSpectra must give the spectra
// BuildPreambleRotation + PreambleSpectra give for that CFO, within
// qRelBound of their peak, and the downchirp sums bit for bit. The starts
// keep every row, drop upchirp rows before sample 0, or run the downchirps
// past the end of the input; one CFO sweeps across zero.
func TestSweepSpectraMatchPreambleSpectra(t *testing.T) {
	worst := 0.0
	for _, osf := range []int{1, 8} {
		p := MustParams(7, 4, 125e3, osf)
		d := NewDemodulator(p)
		n, sym := p.N(), p.SymbolSamples()
		rng := rand.New(rand.NewSource(int64(10 + osf)))
		ants := make([][]complex128, 2)
		for a := range ants {
			ants[a] = make([]complex128, 14*sym)
			for i := range ants[a] {
				ants[a][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		end := float64(len(ants[0]))
		starts := []float64{float64(sym) + 3, -3*float64(sym) + 0.5, end - 11*float64(sym)}
		up, down := make([]complex128, n), make([]complex128, n)
		wantUp, wantDown := make([]complex128, n), make([]complex128, n)
		var pr PreambleRows
		var rot PreambleRotation
		for _, start := range starts {
			for _, nAnt := range []int{1, 2} {
				d.DechirpPreamble(&pr, ants[:nAnt], start)
				for _, cfo := range []float64{-4.3, -0.5, 3.0625} {
					d.BuildPreambleRotation(&rot, cfo)
					d.SweepRows(&pr, &rot)
					for i := 0; i < CFOSweepSteps; i++ {
						d.BuildPreambleRotation(&rot, cfo+float64(i)/CFOSweepSteps)
						d.SweepSpectra(up, down, &pr, i, &rot)
						d.PreambleSpectra(wantUp, wantDown, &pr, &rot)
						diff, scale := maxAbsDiff(up, wantUp)
						if diff > qRelBound*scale {
							t.Fatalf("OSF %d start %v ants %d cfo %v step %d: up sum off by %g of peak %g",
								osf, start, nAnt, cfo, i, diff, scale)
						}
						if scale > 0 {
							worst = math.Max(worst, diff/scale)
						}
						for b := range down {
							if !sameBits(down[b], wantDown[b]) {
								t.Fatalf("OSF %d start %v ants %d cfo %v step %d: down bin %d = %v, want %v",
									osf, start, nAnt, cfo, i, b, down[b], wantDown[b])
							}
						}
					}
				}
			}
		}
	}
	t.Logf("largest up-sum error %.3g of the spectrum peak (bound %g)", worst, qRelBound)
}

// TestDFT8MatchesNaive holds the radix-2 8-point DFT to the direct sum.
func TestDFT8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		var a [8]complex128
		for k := range a {
			a[k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		norm := 0.0
		for _, v := range a {
			norm += cmplx.Abs(v)
		}
		got := dft8(&a)
		for m := range got {
			var want complex128
			for k, v := range a {
				s, c := math.Sincos(-2 * math.Pi * float64(k*m%8) / 8)
				want += v * complex(c, s)
			}
			if cmplx.Abs(got[m]-want) > 1e-15*norm {
				t.Fatalf("trial %d bin %d: %v, want %v", trial, m, got[m], want)
			}
		}
	}
}
