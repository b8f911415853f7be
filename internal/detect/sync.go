package detect

import (
	"math"

	"tnb/internal/lora"
)

// Fractional synchronization (paper §7 step 4): a 3-phase search over
// Q(δt, δf), the coherent preamble peak energy, and Q*(δt, δf), which is Q
// gated on both the upchirp and downchirp peaks sitting at bin 0.
//
// δt is measured in receiver samples and δf in cycles per symbol (the bin
// unit), both relative to the coarse estimates.

// qResult carries one evaluation of the Q function. upZero and downZero
// mark a sum with no element above 0, all zeros when the direction's rows
// are left out or read past the trace end: its argmax is bin 0 on every CFO
// line.
type qResult struct {
	energy           float64
	upBin, downBin   int
	upZero, downZero bool
}

// evalRows evaluates Q for the rows dechirped into rs.rows under rotation
// rs.rot. The sums live in the worker's scratch: the search runs this dozens
// of times per candidate, so it must not allocate.
func (d *Detector) evalRows(rs *refineScratch) qResult {
	d.demod.PreambleSpectra(rs.upSum, rs.downSum, &rs.rows, &rs.rot)
	return spectraQ(rs.upSum, rs.downSum)
}

// spectraQ is Q of one pair of up and down sums.
func spectraQ(up, down []complex128) qResult {
	ub, ue := maxEnergy(up)
	db, de := maxEnergy(down)
	return peaksQ(ub, ue, db, de)
}

// peaksQ is Q from the up and down peak bins and energies.
func peaksQ(ub int, ue float64, db int, de float64) qResult {
	return qResult{energy: ue + de, upBin: ub, downBin: db, upZero: ue == 0, downZero: de == 0}
}

// maxEnergy returns the bin and squared magnitude of the strongest element.
func maxEnergy(v []complex128) (int, float64) {
	bi, best := 0, 0.0
	for i, x := range v {
		e := real(x)*real(x) + imag(x)*imag(x)
		if e > best {
			best, bi = e, i
		}
	}
	return bi, best
}

// phase2Lines returns the CFO lines phase 2 sweeps after phase 1 picked
// bestF ∈ [−1, 0): bestF and its +1-cycle alias. Q(0) equals Q(−1) (an
// integer cycle per symbol only shifts the spectrum by one bin), so phase 1
// leaves δf = 0 out and δf = −1 stands for both; the lines {−1, 0} and
// {0, 1} would each miss one true offset, so δf = −1 sweeps all three.
func phase2Lines(bestF float64) (lines [3]float64, n int) {
	if bestF == -1 {
		return [3]float64{-1, 0, 1}, 3
	}
	return [3]float64{bestF, bestF + 1}, 2
}

// qStar is Q* on phase-2 line l of a Q evaluated on line 0: Q gated on the
// up and down summed peaks both sitting exactly at bin 0 of line l (the
// paper's "location 1"). Line l's CFO is line 0's plus l cycles per symbol,
// which keeps every symbol phasor and multiplies the ramp by e^{−2πij/N}, so
// its spectra are line 0's shifted down by l bins: S_l[b] = S_0[b+l]. Its
// peak is at bin 0 exactly when line 0's is at bin l, or the sum is all
// zeros. A looser gate would let a ±1-cycle CFO alias through.
func qStar(r qResult, l int) float64 {
	if (r.upBin == l || r.upZero) && (r.downBin == l || r.downZero) {
		return r.energy
	}
	return 0
}

// Phases 2 and 3 sweep δt along a CFO line. After sampleLinear's read of
// position m+a, x[m] + (x[m+1]−x[m])·a, every step of a hypothesis is
// linear and independent of δt: the dechirp by the reference chirp, the
// phasor-weighted row sum, the line's CFO ramp and the transform. The
// weight a is the same for every sample of every row, so on one line the
// spectra at m+a are S(m) + (S(m+1)−S(m))·a, where S(m) are the spectra
// of the integer anchor m. The sweep therefore dechirps each anchor once,
// transforms it once on the first line, which stands for every line (see
// qStar), and evaluates each hypothesis by interpolating the two anchors
// around it in one O(N) pass.
//
// The identity holds only while the anchors keep every row and read inside
// the trace: sampleLinear reads a position past either end as 0 and
// DechirpPreamble leaves out a row that starts before sample 0, and neither
// is linear in a. A search whose anchors could cross an edge evaluates each
// hypothesis directly (one dechirp and PreambleSpectra per δt) and counts as
// a fallback.

// anchorStore holds the anchor spectra of one search: anchor j (sample
// lo+j) has its up sum then its down sum, N each, in spec at slot j; have
// marks the filled slots.
type anchorStore struct {
	spec []complex128
	have []bool
	lo   int
}

// reset empties the store for the anchors [lo, hi], growing it to that
// size only.
func (a *anchorStore) reset(lo, hi, n int) {
	slots := hi - lo + 1
	if cap(a.have) < slots {
		a.have = make([]bool, slots)
		a.spec = make([]complex128, 2*n*slots)
	}
	a.have = a.have[:slots]
	for i := range a.have {
		a.have[i] = false
	}
	a.lo = lo
}

// sums returns the up and down sums of anchor m.
func (a *anchorStore) sums(m, n int) (up, down []complex128) {
	k := 2 * n * (m - a.lo)
	return a.spec[k : k+n : k+n], a.spec[k+n : k+2*n : k+2*n]
}

// storeAnchor transforms the rows in rs.rows, dechirped at anchor m, under
// rs.rot into anchor m's slot.
func (d *Detector) storeAnchor(m int, rs *refineScratch) {
	up, down := rs.anchors.sums(m, d.p.N())
	d.demod.PreambleSpectra(up, down, &rs.rows, &rs.rot)
	rs.anchors.have[m-rs.anchors.lo] = true
}

// fillAnchors stores the anchors that the positions [p0, p1] lie between,
// dechirping each one the store does not hold yet.
func (d *Detector) fillAnchors(antennas [][]complex128, p0, p1 float64, rs *refineScratch) {
	for m := int(math.Floor(p0)); m <= int(math.Ceil(p1)); m++ {
		if !rs.anchors.have[m-rs.anchors.lo] {
			d.demod.DechirpPreamble(&rs.rows, antennas, float64(m))
			d.storeAnchor(m, rs)
		}
	}
}

// interpQ evaluates Q at position pos from the stored anchors floor(pos)
// and, for a fractional pos, the anchor after it. At an integer pos the
// interpolation reads the one anchor exactly.
func (d *Detector) interpQ(pos float64, rs *refineScratch) qResult {
	n := d.p.N()
	fm := math.Floor(pos)
	m, a := int(fm), pos-fm
	up0, down0 := rs.anchors.sums(m, n)
	up1, down1 := up0, down0
	if a != 0 {
		up1, down1 = rs.anchors.sums(m+1, n)
	}
	ub, ue := maxEnergyLerp(up0, up1, a)
	db, de := maxEnergyLerp(down0, down1, a)
	return peaksQ(ub, ue, db, de)
}

// maxEnergyLerp is maxEnergy of the vector v0 + (v1−v0)·a.
func maxEnergyLerp(v0, v1 []complex128, a float64) (int, float64) {
	v1 = v1[:len(v0)]
	bi, best := 0, 0.0
	for i, x := range v0 {
		y := v1[i]
		re := real(x) + (real(y)-real(x))*a
		im := imag(x) + (imag(y)-imag(x))*a
		if e := re*re + im*im; e > best {
			best, bi = e, i
		}
	}
	return bi, best
}

// fractionalSearch runs the paper's 3-phase search and returns the
// fractional timing (receiver samples), fractional CFO (cycles/symbol) and
// the final Q* energy. A search whose every hypothesis fails the gate
// returns Q* = 0 at δt = −(OSF/2 + 1), phase 3's first step from phase 2's
// first.
//
// Phase 1 dechirps the start once and forms its 16 CFO hypotheses' upchirp
// sums with one symbol-axis DFT (lora.SweepRows). Phases 2 and 3 evaluate
// every CFO line on the first line's spectra (see qStar), interpolated
// between integer anchors (see anchorStore) or, at a trace edge, dechirped
// per δt. Hypotheses are compared in the order of the plain per-hypothesis
// search, so ties break the same way.
func (d *Detector) fractionalSearch(antennas [][]complex128, start, cfo float64, rs *refineScratch) (dt, df, q float64) {
	bestF := d.phase1(antennas, start, cfo, rs)

	// Phase 2: δt swept at half-sample steps on the lines δf* and δf*+1
	// (all of −1, 0 and 1 when δf* = −1, see phase2Lines); maximize Q*,
	// which kills the ±1-cycle CFO alias. The paper sweeps δt ∈ [−1, 1];
	// our coarse stage quantizes the timing to half a chip (OSF/2 receiver
	// samples), so the sweep covers that full range. Every line is read
	// from the first line's Q at each step.
	halfChip := float64(d.p.OSF) / 2
	steps := int(4*halfChip) + 3
	lineBuf, nl := phase2Lines(bestF)
	lines := lineBuf[:nl]
	d.demod.BuildPreambleRotation(&rs.rot, cfo+lines[0])
	if cap(rs.qres) < steps {
		rs.qres = make([]qResult, steps)
	}
	res := rs.qres[:steps]
	// Every position is start+t for an exact dyadic t, one rounding, so
	// the anchor bounds below are the positions' own floors and ceilings.
	// Phase 3 reaches half a sample past phase 2's ends.
	t2 := func(i int) float64 { return -halfChip - 0.5 + float64(i)/2 }
	lo, hi := int(math.Floor(start+(-halfChip-1))), int(math.Ceil(start+(halfChip+1)))
	interp := d.demod.PreambleRowsInside(lo, hi, len(antennas[0]))
	if interp {
		rs.anchors.reset(lo, hi, d.p.N())
		if math.Floor(start) == start {
			d.storeAnchor(int(start), rs) // phase 1's rows
		}
		d.fillAnchors(antennas, start+t2(0), start+t2(steps-1), rs)
	} else {
		rs.fallbacks++
	}
	for i := range res {
		res[i] = d.sweepQ(antennas, start+t2(i), interp, rs)
	}
	bestT, bestQS, bestL := 0.0, -1.0, 0
	for l := range lines {
		for i, r := range res {
			if qs := qStar(r, l); qs > bestQS {
				bestQS, bestT, bestL = qs, t2(i), l
			}
		}
	}

	// Phase 3: δt from bestT−1/2 to bestT+1/2 in steps of 1/U.
	u := d.p.OSF
	t3 := func(i int) float64 { return bestT - 0.5 + float64(i)/float64(u) }
	if interp {
		d.fillAnchors(antennas, start+t3(0), start+t3(u), rs)
	}
	finalT, finalQ := bestT, -1.0
	for i := 0; i <= u; i++ {
		t := t3(i)
		if qs := qStar(d.sweepQ(antennas, start+t, interp, rs), bestL); qs > finalQ {
			finalQ, finalT = qs, t
		}
	}
	if bestL != 0 && finalQ > 0 {
		// Report Q at the pick on the winning line's own rotation, as a
		// search that transforms every line would: its rounding differs from
		// line 0's shifted spectra.
		d.demod.BuildPreambleRotation(&rs.rot, cfo+lines[bestL])
		pos := start + finalT
		if interp {
			for m := int(math.Floor(pos)); m <= int(math.Ceil(pos)); m++ {
				d.demod.DechirpPreamble(&rs.rows, antennas, float64(m))
				d.storeAnchor(m, rs)
			}
		}
		finalQ = d.sweepQ(antennas, pos, interp, rs).energy
	}
	return finalT, lines[bestL], finalQ
}

// phase1 is the search's phase 1: δt = 0, δf from −1 to −1/16 in steps of
// 1/16; it returns the δf of the largest Q. It leaves the start's rows in
// rs.rows.
func (d *Detector) phase1(antennas [][]complex128, start, cfo float64, rs *refineScratch) float64 {
	d.demod.DechirpPreamble(&rs.rows, antennas, start)
	d.demod.BuildPreambleRotation(&rs.rot, cfo-1)
	d.demod.SweepRows(&rs.rows, &rs.rot)
	bestF, bestQ := 0.0, -1.0
	for i := 0; i < lora.CFOSweepSteps; i++ {
		f := -1 + float64(i)/lora.CFOSweepSteps
		if i > 0 {
			d.demod.BuildPreambleRotation(&rs.rot, cfo+f)
		}
		d.demod.SweepSpectra(rs.upSum, rs.downSum, &rs.rows, i, &rs.rot)
		if r := spectraQ(rs.upSum, rs.downSum); r.energy > bestQ {
			bestQ, bestF = r.energy, f
		}
	}
	return bestF
}

// sweepQ evaluates Q at position pos under rs.rot: interpolated from the
// anchors, or dechirped at pos.
func (d *Detector) sweepQ(antennas [][]complex128, pos float64, interp bool, rs *refineScratch) qResult {
	if interp {
		return d.interpQ(pos, rs)
	}
	d.demod.DechirpPreamble(&rs.rows, antennas, pos)
	return d.evalRows(rs)
}
