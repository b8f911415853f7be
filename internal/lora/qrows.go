package lora

import "tnb/internal/dsp"

// Shared rows for the §7 Q search. Q(δt, δf) coherently sums the spectra
// of the 8 preamble upchirps and the 2 full downchirps, each dechirped at
// start+δt and CFO-corrected for cfo+δf. DechirpInto forms every sample as
// interp·conj(ref) times one Rotator value, and the two factors depend on
// different halves of the hypothesis: the dechirped sample on δt alone, the
// rotation on δf and the symbol index alone. A search can therefore dechirp
// each start once (DechirpPreamble), build each CFO's rotations once
// (BuildPreambleRotation) and combine any pair (PreambleSpectra). Every
// combined sample is the product DechirpInto forms, from the same operands,
// so the sums are bit-identical to per-hypothesis DechirpInto + Forward.

// qSymbols are the symbol indices of the Q-search rows: the preamble
// upchirps, then the two full downchirps after the sync symbols.
var qSymbols = [...]int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11}

// PreambleRows holds the Q-search rows of one start: each symbol of
// qSymbols at or after sample 0, dechirped per antenna with no CFO
// correction, in symbol-then-antenna order. The zero value is ready to use;
// buffers grow on first use and are reused after.
type PreambleRows struct {
	data  []complex128 // rows × N dechirped samples
	stack []complex128 // rows × N rotated, bit-reversed transform input
	slot  []int        // qSymbols index of each row
	lo    []int        // rotated span [lo, hi) of each row
	hi    []int        // (dsp.DechirpRotatedSpan)
	up    int          // rows [0, up) are upchirps, [up, rows) downchirps
	rows  int
}

// PreambleRotation holds one CFO hypothesis's rotations for every symbol of
// qSymbols: the Rotator sequence DechirpInto would use at that symbol index.
// The zero value is ready to use.
type PreambleRotation struct {
	w  []complex128        // len(qSymbols) × N
	on [len(qSymbols)]bool // false where DechirpInto skips the rotation
}

// DechirpPreamble dechirps the Q-search rows of a preamble starting at the
// (fractional) receiver sample start into pr, exactly as DechirpInto and
// DechirpDownInto do with zero CFO. Symbols that would start before sample
// 0 are left out, as the search leaves them out of its sums.
func (d *Demodulator) DechirpPreamble(pr *PreambleRows, antennas [][]complex128, start float64) {
	n, sym := d.p.N(), d.p.SymbolSamples()
	step := float64(d.p.OSF)
	if most := len(qSymbols) * len(antennas); len(pr.slot) < most || len(pr.data) < most*n {
		pr.data = make([]complex128, most*n)
		pr.stack = make([]complex128, most*n)
		pr.slot = make([]int, most)
		pr.lo = make([]int, most)
		pr.hi = make([]int, most)
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
			pr.lo[rows], pr.hi[rows] = dsp.DechirpRotatedSpan(s, step, len(ant), n)
			rows++
		}
	}
	pr.rows = rows
}

// BuildPreambleRotation fills r with the CFO rotations for cfoCycles: for
// each symbol of qSymbols, the values the Rotator inside DechirpInto (or
// DechirpDownInto) generates at that symbol index, or none where that
// kernel skips the rotation.
func (d *Demodulator) BuildPreambleRotation(r *PreambleRotation, cfoCycles float64) {
	n := d.p.N()
	if len(r.w) != len(qSymbols)*n {
		r.w = make([]complex128, len(qSymbols)*n)
	}
	for slot, k := range qSymbols {
		phase0, dphase := d.cfoPhases(cfoCycles, k)
		r.on[slot] = phase0 != 0 || dphase != 0
		if !r.on[slot] {
			continue
		}
		rot := dsp.NewRotator(phase0, dphase)
		w := r.w[slot*n : (slot+1)*n]
		for i := range w {
			w[i] = rot.Next()
		}
	}
}

// PreambleSpectra sets upSum and downSum (length N) to the coherent sums of
// the CFO-corrected upchirp and downchirp row spectra of pr under rotation
// r, adding rows in symbol-then-antenna order. The rows go through one
// batched transform per direction, whose final stage adds into the sums.
// pr's transform scratch is overwritten; its dechirped rows are not.
func (d *Demodulator) PreambleSpectra(upSum, downSum []complex128, pr *PreambleRows, r *PreambleRotation) {
	n := d.p.N()
	d.rotateRows(pr, r)
	for i := range upSum {
		upSum[i] = 0
		downSum[i] = 0
	}
	d.plan.ForwardSumRev(upSum, pr.stack[:pr.up*n], pr.up)
	d.plan.ForwardSumRev(downSum, pr.stack[pr.up*n:pr.rows*n], pr.rows-pr.up)
}

// rotateRows writes every row of pr, CFO-corrected by r, into pr.stack in
// bit-reversed order, the layout ForwardSumRev reads: each sample is the
// value DechirpInto would produce, which multiplies by the rotator only over
// the row's rotated span.
func (d *Demodulator) rotateRows(pr *PreambleRows, r *PreambleRotation) {
	n := d.p.N()
	rev := d.plan.Rev()[:n:n]
	for j := 0; j < pr.rows; j++ {
		src := pr.data[j*n : (j+1)*n : (j+1)*n]
		dst := pr.stack[j*n : (j+1)*n : (j+1)*n]
		slot := pr.slot[j]
		lo, hi := 0, 0
		if r.on[slot] {
			lo, hi = pr.lo[j], pr.hi[j]
		}
		for k := 0; k < lo; k++ {
			dst[rev[k]] = src[k]
		}
		w := r.w[slot*n : (slot+1)*n : (slot+1)*n]
		for k := lo; k < hi; k++ {
			dst[rev[k]] = src[k] * w[k]
		}
		for k := hi; k < n; k++ {
			dst[rev[k]] = src[k]
		}
	}
}
