package detect

import (
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

// fractionalSearch runs the paper's 3-phase search and returns the
// fractional timing (receiver samples), fractional CFO (cycles/symbol) and
// the final Q energy.
//
// Every distinct piece of work is done once per search: a start is
// dechirped once for all the CFO hypotheses evaluated at it, a CFO's
// rotation is built once for all the starts, and phase 3 reuses the
// phase-2 results that lie on its grid. Hypotheses are compared in the
// order of the plain per-hypothesis search, so ties break the same way.
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
	// (OSF/2 receiver samples), so the sweep covers that full range. Each δt
	// is dechirped once for every line; res[l·steps+i] is line l at step i.
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
	for i := 0; i < steps; i++ {
		t := -halfChip - 0.5 + float64(i)/2
		d.demod.DechirpPreamble(&rs.rows, antennas, start+t)
		for l := range lines {
			res[l*steps+i] = d.evalRows(&rs.rot[l], rs)
		}
	}
	bestT, bestF2, bestQS := 0.0, bestF, -1.0
	bestL, bestI := 0, 0
	for l, f := range lines {
		for i := 0; i < steps; i++ {
			t := -halfChip - 0.5 + float64(i)/2
			if qs := d.qStar(res[l*steps+i]); qs > bestQS {
				bestQS, bestT, bestF2 = qs, t, f
				bestL, bestI = l, i
			}
		}
	}
	if bestQS < 0 {
		// No hypothesis put the peaks at bin 0; fall back to the phase-1
		// estimate.
		return 0, bestF, bestQ
	}

	// Phase 3: δt from bestT−1/2 to bestT+1/2 in steps of 1/U. A δt on the
	// half-sample grid (2i/U integral) is phase-2 step bestI−1+2i/U of the
	// winning line — the same float, since every value involved is a small
	// multiple of 1/2 — so its result is reused when that step exists.
	u := d.p.OSF
	finalT, finalQ := bestT, -1.0
	for i := 0; i <= u; i++ {
		t := bestT - 0.5 + float64(i)/float64(u)
		var r qResult
		if j := bestI - 1 + 2*i/u; 2*i%u == 0 && j >= 0 && j < steps {
			r = res[bestL*steps+j]
		} else {
			d.demod.DechirpPreamble(&rs.rows, antennas, start+t)
			r = d.evalRows(&rs.rot[bestL], rs)
		}
		if qs := d.qStar(r); qs > finalQ {
			finalQ, finalT = qs, t
		}
	}
	if finalQ < 0 {
		return bestT, bestF2, bestQS
	}
	return finalT, bestF2, finalQ
}
