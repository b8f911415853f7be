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
	data []complex128 // rows × N dechirped samples
	acc  []complex128 // N-sample phasor-weighted row sum
	slot []int        // qSymbols index of each row
	up   int          // rows [0, up) are upchirps, [up, rows) downchirps
	rows int
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
// [from, to) of pr, writing the time-domain sum in the bit-reversed order
// ForwardRev reads.
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
	rev := d.plan.Rev()[:n:n]
	ramp := r.ramp[:n:n]
	for i := range sum[:n] {
		sum[i] = acc[rev[i]] * ramp[rev[i]]
	}
	d.plan.ForwardRev(sum)
}
