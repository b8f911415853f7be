package lora

import (
	"math"

	"tnb/internal/dsp"
)

// Shared rows for the §7 Q search. Q(δt, δf) coherently sums the spectra
// of the 8 preamble upchirps and the 2 full downchirps, each dechirped at
// start+δt and CFO-corrected for cfo+δf. A dechirped sample depends on δt
// alone. The CFO correction of sample j of symbol k is
// e^{i(phase0ₖ + j·dphase)} (cfoPhases), and dphase is the same for every
// symbol, so it factors into a per-symbol phasor e^{i·phase0ₖ} and one
// shared ramp e^{i·j·dphase}. The transform is linear, so the coherent sum
// of the rotated rows' spectra is the spectrum of
//
//	ramp · Σₖ e^{i·phase0ₖ} · rowₖ
//
// A search dechirps each start once (DechirpPreamble), builds each CFO's
// ramp and phasors once (BuildPreambleRotation), and combines any pair with
// one complex multiply-add per row sample and one transform per direction
// (PreambleSpectra). The sums equal per-row DechirpInto + Forward up to
// rounding. Where the fused kernel's integer path leaves a sample unrotated,
// that sample is an exact zero, so rotating it changes nothing.

// qSymbols are the symbol indices of the Q-search rows: the preamble
// upchirps, then the two full downchirps after the sync symbols.
var qSymbols = [...]int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11}

// PreambleRows holds the Q-search rows of one start: each symbol of
// qSymbols at or after sample 0, dechirped per antenna with no CFO
// correction, in symbol-then-antenna order. The zero value is ready to use;
// buffers grow on first use and are reused after.
type PreambleRows struct {
	data  []complex128 // rows × N dechirped samples
	acc   []complex128 // N-sample phasor-weighted row sum
	sweep []complex128 // CFOSweepSteps × N upchirp sums of the last SweepRows
	slot  []int        // qSymbols index of each row
	up    int          // rows [0, up) are upchirps, [up, rows) downchirps
	rows  int
}

// PreambleRotation holds one CFO hypothesis's correction for every symbol
// of qSymbols, factored into the ramp all symbols share and one phasor per
// symbol. The zero value is ready to use.
type PreambleRotation struct {
	ramp   []complex128              // e^{i·j·dphase}, j = 0 … N−1
	phasor [len(qSymbols)]complex128 // e^{i·phase0ₖ} per qSymbols slot
}

// DechirpPreamble dechirps the Q-search rows of a preamble starting at the
// (fractional) receiver sample start into pr, exactly as DechirpInto and
// DechirpDownInto do with zero CFO. Symbols that would start before sample
// 0 are left out, as the search leaves them out of its sums.
func (d *Demodulator) DechirpPreamble(pr *PreambleRows, antennas [][]complex128, start float64) {
	n, sym := d.p.N(), d.p.SymbolSamples()
	step := float64(d.p.OSF)
	if most := len(qSymbols) * len(antennas); len(pr.slot) < most || len(pr.data) < most*n || len(pr.acc) != n {
		pr.data = make([]complex128, most*n)
		pr.acc = make([]complex128, n)
		pr.slot = make([]int, most)
	}
	rows := 0
	for slot, k := range qSymbols {
		ref := d.ref.Up
		if slot >= PreambleUpchirps {
			ref = d.ref.Down
		}
		if slot == PreambleUpchirps {
			pr.up = rows
		}
		s := start + float64(k*sym)
		if s < 0 {
			continue
		}
		for _, ant := range antennas {
			dsp.DechirpFused(pr.data[rows*n:(rows+1)*n], ant, s, step, ref, 0, 0)
			pr.slot[rows] = slot
			rows++
		}
	}
	pr.rows = rows
}

// PreambleRowsInside reports whether DechirpPreamble at every integer start
// in [lo, hi] keeps all its rows and reads only samples inside [0, n−1]:
// the starts at or after sample 0, and the last row, the second full
// downchirp, ending at or before sample n−1.
func (d *Demodulator) PreambleRowsInside(lo, hi, n int) bool {
	sym := d.p.SymbolSamples()
	last := hi + qSymbols[len(qSymbols)-1]*sym + (d.p.N()-1)*d.p.OSF
	return lo >= 0 && last < n
}

// BuildPreambleRotation fills r with the CFO correction for cfoCycles: the
// phasor e^{i·phase0ₖ} of each symbol of qSymbols and the ramp
// e^{i·j·dphase} that DechirpInto's Rotator multiplies it by.
func (d *Demodulator) BuildPreambleRotation(r *PreambleRotation, cfoCycles float64) {
	n := d.p.N()
	if len(r.ramp) != n {
		r.ramp = make([]complex128, n)
	}
	for slot, k := range qSymbols {
		phase0, _ := d.cfoPhases(cfoCycles, k)
		s, c := math.Sincos(phase0)
		r.phasor[slot] = complex(c, s)
	}
	_, dphase := d.cfoPhases(cfoCycles, 0)
	rot := dsp.NewRotator(0, dphase)
	for j := range r.ramp {
		r.ramp[j] = rot.Next()
	}
}

// PreambleSpectra sets upSum and downSum (length N) to the coherent sums of
// the CFO-corrected upchirp and downchirp row spectra of pr under rotation
// r: per direction, the rows are summed in the time domain and the sum is
// transformed once.
func (d *Demodulator) PreambleSpectra(upSum, downSum []complex128, pr *PreambleRows, r *PreambleRotation) {
	d.rowSpectrum(upSum, pr, r, 0, pr.up)
	d.rowSpectrum(downSum, pr, r, pr.up, pr.rows)
}

// rowSpectrum sets sum to the spectrum of ramp · Σ phasor·row over rows
// [from, to) of pr.
func (d *Demodulator) rowSpectrum(sum []complex128, pr *PreambleRows, r *PreambleRotation, from, to int) {
	n := d.p.N()
	acc := pr.acc[:n:n]
	for i := range acc {
		acc[i] = 0
	}
	j := from
	for ; j+1 < to; j += 2 {
		w0, w1 := r.phasor[pr.slot[j]], r.phasor[pr.slot[j+1]]
		r0 := pr.data[j*n : (j+1)*n : (j+1)*n]
		r1 := pr.data[(j+1)*n : (j+2)*n : (j+2)*n]
		for i := range acc {
			acc[i] += w0*r0[i] + w1*r1[i]
		}
	}
	if j < to {
		w := r.phasor[pr.slot[j]]
		row := pr.data[j*n : (j+1)*n : (j+1)*n]
		for i, v := range row {
			acc[i] += w * v
		}
	}
	d.rampSpectrum(sum, acc, r)
}

// rampSpectrum sets sum to the spectrum of ramp · acc, writing the product
// in the bit-reversed order ForwardRev reads.
func (d *Demodulator) rampSpectrum(sum, acc []complex128, r *PreambleRotation) {
	n := d.p.N()
	acc = acc[:n:n]
	rev := d.plan.Rev()[:n:n]
	ramp := r.ramp[:n:n]
	for i := range sum[:n] {
		sum[i] = acc[rev[i]] * ramp[rev[i]]
	}
	d.plan.ForwardRev(sum)
}

// CFOSweepSteps is the number of CFO hypotheses one symbol-axis sweep
// covers: c + i/16 for i in [0, 16), a grid of 1/16 cycle per symbol.
const CFOSweepSteps = 16

// Phase 1 of the Q search tries the CFOs cᵢ = c + i/16 at one start. Their
// upchirp phasors are e^{−2πi·k·cᵢ} = ψₖ·ωᵏⁱ with ψₖ = e^{−2πi·k·c}, the
// phasor of c, and ω = e^{−2πi/16}. So for every sample j the 16 phasor-
// weighted upchirp sums Σₖ ψₖ·rowₖ[j]·ωᵏⁱ are one 16-point DFT over the
// symbol axis of the 8 values xₖ = ψₖ·rowₖ[j], zero-padded to 16. Its even
// outputs are the 8-point DFT of xₖ and its odd outputs the 8-point DFT of
// xₖ·ωᵏ. The sums differ from per-hypothesis phasors by rounding alone.

// SweepRows sets pr's sweep to the phasor-weighted upchirp row sums of the
// CFOSweepSteps hypotheses c + i/16, where r is the rotation of c. Only r's
// upchirp phasors are read.
func (d *Demodulator) SweepRows(pr *PreambleRows, r *PreambleRotation) {
	n := d.p.N()
	if len(pr.sweep) != CFOSweepSteps*n {
		pr.sweep = make([]complex128, CFOSweepSteps*n)
	}
	// xₖ goes to sweep row 8+k first; each column j is then read whole
	// before its 16 outputs overwrite it.
	x := pr.sweep[PreambleUpchirps*n:]
	clear(x)
	for j := 0; j < pr.up; j++ {
		k := pr.slot[j]
		w := r.phasor[k]
		row := pr.data[j*n : (j+1)*n : (j+1)*n]
		xk := x[k*n : (k+1)*n : (k+1)*n]
		for i, v := range row {
			xk[i] += w * v
		}
	}
	var in, odd [PreambleUpchirps]complex128
	for j := 0; j < n; j++ {
		for k := range in {
			in[k] = x[k*n+j]
			odd[k] = in[k] * sweepTwiddle[k]
		}
		even := dft8(&in)
		odd = dft8(&odd)
		for m := range even {
			pr.sweep[2*m*n+j] = even[m]
			pr.sweep[(2*m+1)*n+j] = odd[m]
		}
	}
}

// sweepTwiddle holds ωᵏ = e^{−2πi·k/16} for the odd outputs of SweepRows.
var sweepTwiddle = func() (w [PreambleUpchirps]complex128) {
	for k := range w {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / CFOSweepSteps)
		w[k] = complex(c, s)
	}
	return w
}()

// dft8 returns the 8-point DFT of a, radix 2.
func dft8(a *[8]complex128) [8]complex128 {
	const h = math.Sqrt2 / 2
	// 4-point DFTs of the even and odd samples.
	e0, e1 := a[0]+a[4], a[0]-a[4]
	e2, e3 := a[2]+a[6], a[2]-a[6]
	o0, o1 := a[1]+a[5], a[1]-a[5]
	o2, o3 := a[3]+a[7], a[3]-a[7]
	E := [4]complex128{e0 + e2, e1 + mulNegI(e3), e0 - e2, e1 - mulNegI(e3)}
	O := [4]complex128{o0 + o2, o1 + mulNegI(o3), o0 - o2, o1 - mulNegI(o3)}
	// Twiddles e^{−2πi·m/8}: 1, (1−i)/√2, −i, (−1−i)/√2.
	t1 := complex((real(O[1])+imag(O[1]))*h, (imag(O[1])-real(O[1]))*h)
	t2 := mulNegI(O[2])
	t3 := complex((imag(O[3])-real(O[3]))*h, -(real(O[3])+imag(O[3]))*h)
	return [8]complex128{
		E[0] + O[0], E[1] + t1, E[2] + t2, E[3] + t3,
		E[0] - O[0], E[1] - t1, E[2] - t2, E[3] - t3,
	}
}

// mulNegI returns −i·z, exactly.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

// SweepSpectra is PreambleSpectra for hypothesis i of the last SweepRows
// on pr, with r the rotation of that hypothesis's CFO: the upchirp sum comes
// from the sweep and the two downchirp rows are summed directly.
func (d *Demodulator) SweepSpectra(upSum, downSum []complex128, pr *PreambleRows, i int, r *PreambleRotation) {
	n := d.p.N()
	d.rampSpectrum(upSum, pr.sweep[i*n:(i+1)*n], r)
	d.rowSpectrum(downSum, pr, r, pr.up, pr.rows)
}
