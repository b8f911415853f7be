package lora

import (
	"math"
	"math/rand"
	"testing"

	"tnb/internal/dsp"
)

// sameBits reports whether two complex values are equal bit for bit,
// telling +0 from −0.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestPreambleRowsMatchDechirpInto checks the factored dechirp: every
// rotated row PreambleSpectra transforms must hold, in bit-reversed order,
// exactly the samples DechirpInto/DechirpDownInto produce for that symbol —
// including the signs of the zeros the fused kernel writes past the end of
// the input on its integer path — and the sums must equal per-row Forward.
func TestPreambleRowsMatchDechirpInto(t *testing.T) {
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
		want := make([]complex128, n)
		var pr PreambleRows
		var rot PreambleRotation
		for _, start := range starts {
			d.DechirpPreamble(&pr, ants, start)
			for _, cfo := range []float64{0, -1.8125, 0.3, 2.5} {
				d.BuildPreambleRotation(&rot, cfo)
				d.rotateRows(&pr, &rot)
				row := 0
				for i := range want {
					want[i] = 0
				}
				wantDown := make([]complex128, n)
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
						got := pr.stack[row*n : (row+1)*n]
						for i, v := range buf {
							if g := got[plan.Rev()[i]]; !sameBits(g, v) {
								t.Fatalf("OSF %d start %v cfo %v symbol %d: sample %d = %v, DechirpInto %v",
									osf, start, cfo, k, i, g, v)
							}
						}
						plan.Forward(buf)
						for i := range sum {
							sum[i] += buf[i]
						}
						row++
					}
				}
				if row != pr.rows {
					t.Fatalf("start %v: %d rows, want %d", start, pr.rows, row)
				}
				up, down := make([]complex128, n), make([]complex128, n)
				d.PreambleSpectra(up, down, &pr, &rot)
				for i := range up {
					if !sameBits(up[i], want[i]) || !sameBits(down[i], wantDown[i]) {
						t.Fatalf("OSF %d start %v cfo %v bin %d: sums (%v, %v), per-row Forward (%v, %v)",
							osf, start, cfo, i, up[i], down[i], want[i], wantDown[i])
					}
				}
			}
		}
	}
}
