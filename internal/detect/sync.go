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

// qResult carries one evaluation of the Q function.
type qResult struct {
	energy  float64
	upBin   int
	downBin int
}

// evalQ computes Q at the single hypothesis (start+δt, cfo+δf): the
// complex signal vectors of the 8 preamble upchirps are summed coherently
// (phase-continuous CFO correction) and likewise the 2 full downchirps; Q is
// the summed peak energy of both. It is fractionalSearch's path for one
// hypothesis: dechirp the start, build the CFO's rotations, combine.
func (d *Detector) evalQ(antennas [][]complex128, start, cfo, dt, df float64, rs *refineScratch) qResult {
	d.demod.DechirpPreamble(&rs.rows, antennas, start+dt)
	d.demod.BuildPreambleRotation(&rs.rot[0], cfo+df)
	return d.evalRows(&rs.rot[0], rs)
}

// evalRows evaluates Q for the rows dechirped into rs.rows under rotation
// rot. The sums live in the worker's scratch: the search runs this dozens of
// times per candidate, so it must not allocate.
func (d *Detector) evalRows(rot *lora.PreambleRotation, rs *refineScratch) qResult {
	d.demod.PreambleSpectra(rs.upSum, rs.downSum, &rs.rows, rot)
	ub, ue := maxEnergy(rs.upSum)
	db, de := maxEnergy(rs.downSum)
	return qResult{energy: ue + de, upBin: ub, downBin: db}
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
// bestF ∈ [−1, 0]: bestF and its +1-cycle alias. Q(−1) and Q(0) are equal
// (an integer cycle per symbol only shifts the spectrum by one bin), so
// when bestF is an endpoint, rounding alone decided between them, and the
// lines {−1, 0} and {0, 1} would each miss one true offset; both endpoints
// then sweep all three lines.
func phase2Lines(bestF float64) (lines [3]float64, n int) {
	if bestF == -1 || bestF == 0 {
		return [3]float64{-1, 0, 1}, 3
	}
	return [3]float64{bestF, bestF + 1}, 2
}

// qStar gates Q on the peak locations: nonzero only when both the up and
// down summed peaks sit exactly at bin 0 (the paper's "location 1"). A
// looser gate would let a ±1-cycle CFO alias through, since an integer
// cycle per symbol preserves inter-symbol coherence and only shifts both
// peaks by one bin.
func (d *Detector) qStar(r qResult) float64 {
	if r.upBin == 0 && r.downBin == 0 {
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
// transforms it once per line, and evaluates each hypothesis by
// interpolating the two anchors around it in one O(N) pass.
//
// The identity holds only while the anchors keep every row and read inside
// the trace: sampleLinear reads a position past either end as 0 and
// DechirpPreamble leaves out a row that starts before sample 0, and neither
// is linear in a. A search whose anchors could cross an edge evaluates each
// hypothesis directly (one dechirp per δt, PreambleSpectra per line) and
// counts as a fallback.

// anchorStore holds the anchor spectra of one search: anchor j (sample
// lo+j) on line l has its up sum then its down sum, N each, in spec at
// slot j·lines+l; have marks the filled slots.
type anchorStore struct {
	spec  []complex128
	have  []bool
	lo    int
	lines int
}

// reset empties the store for the anchors [lo, hi] on the given number of
// lines, growing it to that size only.
func (a *anchorStore) reset(lo, hi, lines, n int) {
	slots := (hi - lo + 1) * lines
	if cap(a.have) < slots {
		a.have = make([]bool, slots)
		a.spec = make([]complex128, 2*n*slots)
	}
	a.have = a.have[:slots]
	for i := range a.have {
		a.have[i] = false
	}
	a.lo, a.lines = lo, lines
}

// sums returns the up and down sums of anchor m on line l.
func (a *anchorStore) sums(m, l, n int) (up, down []complex128) {
	k := 2 * n * ((m-a.lo)*a.lines + l)
	return a.spec[k : k+n : k+n], a.spec[k+n : k+2*n : k+2*n]
}

// storeAnchor transforms the rows in rs.rows, dechirped at anchor m, on the
// lines [l0, l1) it does not hold yet.
func (d *Detector) storeAnchor(m, l0, l1 int, rs *refineScratch) {
	n := d.p.N()
	st := &rs.anchors
	for l := l0; l < l1; l++ {
		if k := (m-st.lo)*st.lines + l; !st.have[k] {
			up, down := st.sums(m, l, n)
			d.demod.PreambleSpectra(up, down, &rs.rows, &rs.rot[l])
			st.have[k] = true
		}
	}
}

// fillAnchors stores the anchors that the positions [p0, p1] lie between,
// on the lines [l0, l1), dechirping each anchor that misses one of them.
func (d *Detector) fillAnchors(antennas [][]complex128, p0, p1 float64, l0, l1 int, rs *refineScratch) {
	st := &rs.anchors
	for m := int(math.Floor(p0)); m <= int(math.Ceil(p1)); m++ {
		for l := l0; l < l1; l++ {
			if !st.have[(m-st.lo)*st.lines+l] {
				d.demod.DechirpPreamble(&rs.rows, antennas, float64(m))
				d.storeAnchor(m, l0, l1, rs)
				break
			}
		}
	}
}

// interpQ evaluates Q at position pos on line l from the stored anchors
// floor(pos) and, for a fractional pos, the anchor after it. At an integer
// pos the interpolation reads the one anchor exactly.
func (d *Detector) interpQ(pos float64, l int, rs *refineScratch) qResult {
	n := d.p.N()
	fm := math.Floor(pos)
	m, a := int(fm), pos-fm
	up0, down0 := rs.anchors.sums(m, l, n)
	up1, down1 := up0, down0
	if a != 0 {
		up1, down1 = rs.anchors.sums(m+1, l, n)
	}
	ub, ue := maxEnergyLerp(up0, up1, a)
	db, de := maxEnergyLerp(down0, down1, a)
	return qResult{energy: ue + de, upBin: ub, downBin: db}
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
// the final Q energy.
//
// Phase 1 dechirps the start once for its 17 CFO hypotheses and builds each
// CFO's rotation once. Phases 2 and 3 interpolate between integer anchors
// (see anchorStore), or fall back to one dechirp per δt. Hypotheses are
// compared in the order of the plain per-hypothesis search, so ties break
// the same way.
func (d *Detector) fractionalSearch(antennas [][]complex128, start, cfo float64, rs *refineScratch) (dt, df, q float64) {
	// Phase 1: δt = 0, δf from −1 to 0 in steps of 1/16; maximize Q.
	d.demod.DechirpPreamble(&rs.rows, antennas, start)
	bestF, bestQ := 0.0, -1.0
	for i := 0; i <= 16; i++ {
		f := -1 + float64(i)/16
		d.demod.BuildPreambleRotation(&rs.rot[0], cfo+f)
		r := d.evalRows(&rs.rot[0], rs)
		if r.energy > bestQ {
			bestQ, bestF = r.energy, f
		}
	}

	// Phase 2: δt swept at half-sample steps on the lines δf* and δf*+1
	// (all of −1, 0 and 1 when δf* is an endpoint, see phase2Lines);
	// maximize Q*, which kills the ±1-cycle CFO alias. The paper sweeps
	// δt ∈ [−1, 1]; our coarse stage quantizes the timing to half a chip
	// (OSF/2 receiver samples), so the sweep covers that full range.
	// res[l·steps+i] is line l at step i.
	halfChip := float64(d.p.OSF) / 2
	steps := int(4*halfChip) + 3
	lineBuf, nl := phase2Lines(bestF)
	lines := lineBuf[:nl]
	for l, f := range lines {
		d.demod.BuildPreambleRotation(&rs.rot[l], cfo+f)
	}
	if cap(rs.qres) < len(rs.rot)*steps {
		rs.qres = make([]qResult, len(rs.rot)*steps)
	}
	res := rs.qres[:len(lines)*steps]
	// Every position is start+t for an exact dyadic t, one rounding, so
	// the anchor bounds below are the positions' own floors and ceilings.
	// Phase 3 reaches half a sample past phase 2's ends.
	t2 := func(i int) float64 { return -halfChip - 0.5 + float64(i)/2 }
	lo, hi := int(math.Floor(start+(-halfChip-1))), int(math.Ceil(start+(halfChip+1)))
	interp := d.demod.PreambleRowsInside(lo, hi, len(antennas[0]))
	if interp {
		rs.anchors.reset(lo, hi, nl, d.p.N())
		if math.Floor(start) == start {
			d.storeAnchor(int(start), 0, nl, rs) // phase 1's rows
		}
		d.fillAnchors(antennas, start+t2(0), start+t2(steps-1), 0, nl, rs)
	} else {
		rs.fallbacks++
	}
	for i := 0; i < steps; i++ {
		t := t2(i)
		if !interp {
			d.demod.DechirpPreamble(&rs.rows, antennas, start+t)
		}
		for l := range lines {
			res[l*steps+i] = d.sweepQ(start+t, l, interp, rs)
		}
	}
	bestT, bestF2, bestQS := 0.0, bestF, -1.0
	bestL := 0
	for l, f := range lines {
		for i := 0; i < steps; i++ {
			if qs := d.qStar(res[l*steps+i]); qs > bestQS {
				bestQS, bestT, bestF2, bestL = qs, t2(i), f, l
			}
		}
	}
	if bestQS < 0 {
		// No hypothesis put the peaks at bin 0; fall back to the phase-1
		// estimate.
		return 0, bestF, bestQ
	}

	// Phase 3: δt from bestT−1/2 to bestT+1/2 in steps of 1/U.
	u := d.p.OSF
	t3 := func(i int) float64 { return bestT - 0.5 + float64(i)/float64(u) }
	if interp {
		d.fillAnchors(antennas, start+t3(0), start+t3(u), bestL, bestL+1, rs)
	}
	finalT, finalQ := bestT, -1.0
	for i := 0; i <= u; i++ {
		t := t3(i)
		if !interp {
			d.demod.DechirpPreamble(&rs.rows, antennas, start+t)
		}
		if qs := d.qStar(d.sweepQ(start+t, bestL, interp, rs)); qs > finalQ {
			finalQ, finalT = qs, t
		}
	}
	if finalQ < 0 {
		return bestT, bestF2, bestQS
	}
	return finalT, bestF2, finalQ
}

// sweepQ evaluates Q at position pos on phase-2 line l: interpolated from
// the anchors, or from rs.rows, which the caller dechirped at pos.
func (d *Detector) sweepQ(pos float64, l int, interp bool, rs *refineScratch) qResult {
	if interp {
		return d.interpQ(pos, l, rs)
	}
	return d.evalRows(&rs.rot[l], rs)
}
