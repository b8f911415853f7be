package detect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tnb/internal/dsp"
	"tnb/internal/lora"
	"tnb/internal/trace"
)

// Properties of the Q/Q* search surface (paper Fig. 8).

func qSurfaceSetup(t *testing.T) (*Detector, [][]complex128, float64, float64) {
	t.Helper()
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(500))
	b := trace.NewBuilder(p, 1.0, 1, rng)
	payload := make([]uint8, 14)
	start, cfoHz := 25000.0, 1830.0
	if err := b.AddPacket(0, 0, payload, start, 15, cfoHz, nil); err != nil {
		t.Fatal(err)
	}
	tr, _ := b.Build()
	return NewDetector(p), tr.Antennas, start, cfoHz * p.SymbolDuration()
}

func TestQPeaksAtTrueParameters(t *testing.T) {
	d, ants, start, cfo := qSurfaceSetup(t)
	at := func(dt, df float64) float64 {
		return d.evalQ(ants, start, cfo, dt, df, d.newRefineScratch()).energy
	}
	center := at(0, 0)
	// Fractional CFO errors collapse Q (Fig. 8 top: sharp ridges).
	if v := at(0, 0.5); v > center/10 {
		t.Errorf("Q at df=0.5 is %g vs center %g", v, center)
	}
	if v := at(0, 0.25); v > center/2 {
		t.Errorf("Q at df=0.25 is %g vs center %g", v, center)
	}
	// Chip-scale timing errors reduce Q.
	if v := at(4, 0); v > 0.7*center {
		t.Errorf("Q at dt=4 (half chip) is %g vs center %g", v, center)
	}
}

func TestQIntegerCFOAliasHasEqualEnergyButShiftedPeaks(t *testing.T) {
	// The ±1-cycle alias keeps Q's energy (integer cycles preserve
	// inter-symbol coherence) but moves the peaks off bin 0 — exactly why
	// Q* gates on the peak location.
	d, ants, start, cfo := qSurfaceSetup(t)
	center := d.evalQ(ants, start, cfo, 0, 0, d.newRefineScratch())
	alias := d.evalQ(ants, start, cfo, 0, 1, d.newRefineScratch())
	if alias.energy < 0.9*center.energy {
		t.Errorf("alias energy %g vs center %g: expected near-equal", alias.energy, center.energy)
	}
	if center.upBin != 0 || center.downBin != 0 {
		t.Errorf("center peaks at (%d, %d), want (0, 0)", center.upBin, center.downBin)
	}
	if alias.upBin == 0 && alias.downBin == 0 {
		t.Error("alias peaks also at bin 0; Q* could not disambiguate")
	}
	if qStar(center, 0) == 0 {
		t.Error("Q* zero at the true parameters")
	}
	if qStar(alias, 0) != 0 {
		t.Error("Q* nonzero at the alias")
	}
}

func TestQTimingCFOTradeoffBreaksOnDownchirps(t *testing.T) {
	// A (+1 chip, +1 cycle) error keeps upchirp peaks at bin 0 (the +1
	// chip window delay and the -1 cycle residual cancel) but moves the
	// downchirp peaks by -2 bins: the up/down combination is what makes
	// the coarse estimate identifiable.
	d, ants, start, cfo := qSurfaceSetup(t)
	p := lora.MustParams(8, 4, 125e3, 8)
	r := d.evalQ(ants, start+float64(p.OSF), cfo, 0, 1, d.newRefineScratch())
	if r.upBin != 0 {
		t.Fatalf("compensated up peak at %d, want 0", r.upBin)
	}
	if r.downBin == 0 {
		t.Error("down peak at 0 despite the timing/CFO tradeoff")
	}
	if qStar(r, 0) != 0 {
		t.Error("Q* accepted the traded-off hypothesis")
	}
}

func TestFractionalSearchConvergesFromCoarseOffsets(t *testing.T) {
	// From any plausible coarse error (≤ half chip timing, ≤ 1 cycle
	// CFO), the 3-phase search lands within 1/OSF samples and 1/16 cycle.
	d, ants, start, cfo := qSurfaceSetup(t)
	cases := []struct{ dt, df float64 }{
		{0, 0}, {3.5, 0.4}, {-3.5, -0.4}, {2, -0.9}, {-2, 0.9},
	}
	for _, c := range cases {
		ft, fc, q := d.fractionalSearch(ants, start+c.dt, cfo+c.df, d.newRefineScratch())
		if q <= 0 {
			t.Fatalf("offset (%g, %g): search found nothing", c.dt, c.df)
		}
		gotStart := start + c.dt + ft
		gotCFO := cfo + c.df + fc
		if e := math.Abs(gotStart - start); e > 1.0 {
			t.Errorf("offset (%g, %g): timing error %.3f samples", c.dt, c.df, e)
		}
		if e := math.Abs(gotCFO - cfo); e > 1.0/12 {
			t.Errorf("offset (%g, %g): CFO error %.4f cycles", c.dt, c.df, e)
		}
	}
}

// evalQ computes Q at the single hypothesis (start+δt, cfo+δf): the
// complex signal vectors of the 8 preamble upchirps are summed coherently
// (phase-continuous CFO correction) and likewise the 2 full downchirps; Q is
// the summed peak energy of both. It is fractionalSearch's direct path for one
// hypothesis: dechirp the start, build the CFO's rotation, combine.
func (d *Detector) evalQ(antennas [][]complex128, start, cfo, dt, df float64, rs *refineScratch) qResult {
	d.demod.DechirpPreamble(&rs.rows, antennas, start+dt)
	d.demod.BuildPreambleRotation(&rs.rot, cfo+df)
	return d.evalRows(rs)
}

// evalQOracle is the per-hypothesis Q evaluation the shared-row search
// replaced, kept as the reference checkSearch holds it to: every row
// is dechirped with its CFO correction fused in, transformed on its own and
// added to the coherent sums.
func (d *Detector) evalQOracle(antennas [][]complex128, start, cfo, dt, df float64, rs *refineScratch) qResult {
	sym := d.p.SymbolSamples()
	plan := dsp.MustPlan(d.p.N())
	upSum, downSum := rs.upSum, rs.downSum
	for i := range upSum {
		upSum[i] = 0
	}
	for i := range downSum {
		downSum[i] = 0
	}
	s0 := start + dt
	c := cfo + df
	for k := 0; k < lora.PreambleUpchirps; k++ {
		s := s0 + float64(k*sym)
		if s < 0 {
			continue
		}
		for _, ant := range antennas {
			d.demod.DechirpInto(rs.buf, ant, s, c, k)
			plan.Forward(rs.buf)
			for i := range upSum {
				upSum[i] += rs.buf[i]
			}
		}
	}
	for k := 0; k < 2; k++ {
		s := s0 + float64((10+k)*sym)
		if s < 0 {
			continue
		}
		for _, ant := range antennas {
			d.demod.DechirpDownInto(rs.buf, ant, s, c, 10+k)
			plan.Forward(rs.buf)
			for i := range downSum {
				downSum[i] += rs.buf[i]
			}
		}
	}
	ub, ue := maxEnergy(upSum)
	db, de := maxEnergy(downSum)
	return qResult{energy: ue + de, upBin: ub, downBin: db}
}

// fractionalSearchOracle is the 3-phase search as one evalQOracle call per
// hypothesis, in the order fractionalSearch must compare them.
func (d *Detector) fractionalSearchOracle(antennas [][]complex128, start, cfo float64, rs *refineScratch) (dt, df, q float64) {
	// Phase 1: δt = 0, δf from −1 to −1/16 in steps of 1/16; maximize Q.
	bestF, bestQ := 0.0, -1.0
	for i := 0; i < 16; i++ {
		f := -1 + float64(i)/16
		r := d.evalQOracle(antennas, start, cfo, 0, f, rs)
		if r.energy > bestQ {
			bestQ, bestF = r.energy, f
		}
	}

	// Phase 2: δt swept at half-sample steps on the lines δf* and δf*+1,
	// or on all of −1, 0 and 1 when δf* = −1 (Q(−1) = Q(0), so δf = −1
	// stands for both); maximize Q*.
	halfChip := float64(d.p.OSF) / 2
	bestT, bestF2, bestQS := 0.0, bestF, -1.0
	lines := []float64{bestF, bestF + 1}
	if bestF == -1 {
		lines = []float64{-1, 0, 1}
	}
	for _, f := range lines {
		steps := int(4*halfChip) + 3
		for i := 0; i < steps; i++ {
			t := -halfChip - 0.5 + float64(i)/2
			r := d.evalQOracle(antennas, start, cfo, t, f, rs)
			if qs := qStar(r, 0); qs > bestQS {
				bestQS, bestT, bestF2 = qs, t, f
			}
		}
	}

	// Phase 3: δt from bestT−1/2 to bestT+1/2 in steps of 1/U.
	u := d.p.OSF
	finalT, finalQ := bestT, -1.0
	for i := 0; i <= u; i++ {
		t := bestT - 0.5 + float64(i)/float64(u)
		r := d.evalQOracle(antennas, start, cfo, t, bestF2, rs)
		if qs := qStar(r, 0); qs > finalQ {
			finalQ, finalT = qs, t
		}
	}
	return finalT, bestF2, finalQ
}

// diffTrace renders two colliding packets on two antennas for the
// differential tests, returning the trace, the first packet's start and its
// CFO in cycles per symbol.
func diffTrace(t *testing.T, p lora.Params, seed int64) ([][]complex128, float64, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pkt := p.PacketSamples(8)
	b := trace.NewBuilder(p, float64(3*pkt)/p.SampleRate(), 2, rng)
	start := float64(pkt/2) + 0.37*float64(p.OSF)
	cfoHz := 1830.0
	for i, st := range []float64{start, start + float64(pkt)/3} {
		payload := make([]uint8, 8)
		rng.Read(payload)
		if err := b.AddPacket(i, 0, payload, st, 12-float64(3*i), cfoHz-float64(2700*i), nil); err != nil {
			t.Fatal(err)
		}
	}
	tr, _ := b.Build()
	return tr.Antennas, start, cfoHz * p.SymbolDuration()
}

// The Q-search contract against the oracle. fractionalSearch differs from
// evalQOracle in two ways, neither bit-exact:
//
//   - Its sums are factored. Summing the rows in the time domain reorders
//     the rounding of a sum of 10·antennas rows, and the oracle's kernel
//     rounds each CFO phase at the magnitude of phase0 (up to a few hundred
//     radians, ~1e-14 rad) where the factored rotation rounds it at the
//     magnitude of the ramp. Measured: ~1e-15 at Q's peak, up to ~4e-14 at
//     off-peak hypotheses.
//   - Phases 2 and 3 interpolate anchor spectra, S(m) + (S(m+1)−S(m))·a,
//     where the oracle interpolates each sample. For a start on the
//     half-sample grid every position is an exact dyadic number, the oracle
//     reads every sample at weight a exactly, and the two differ by rounding
//     alone. These are the only starts refine passes, since its coarse
//     timing δ is a multiple of half a chip.
//
// So on the half-sample grid the search meets qRelBound and picks the same
// (δt, δf) as the oracle; 936 searches measured a worst error of 1.9e-15
// and no differing pick.
const qRelBound = 1e-13

// qFracBound is the relative error allowed at a fractional start in a trace
// of n samples. There the oracle itself rounds: row k starts at the rounded
// P + k·sym and advances by pos += OSF, so each weight it applies is off
// from the exact fractional part of P by up to the ulp of the position,
// below 2n, hence ≤ ulp(2n) = 2·ulp(n). Q's relative change per unit of
// weight is 2|S(m+1)−S(m)|/|S|, at most 2 while the amplitude changes by
// no more than its own size over one sample. Hence qRelBound + 4·ulp(n).
// Measured: up to 2.1e-13 at n ≈ 10⁵ (0.03·ulp(n)), against a bound of
// ~1e-10.
func qFracBound(n int) float64 {
	f := float64(n)
	return qRelBound + 4*(math.Nextafter(f, math.Inf(1))-f)
}

// qClose reports whether a and b agree within the relative bound, relative
// to the larger magnitude.
func qClose(a, b, bound float64) bool {
	return math.Abs(a-b) <= bound*math.Max(math.Abs(a), math.Abs(b))
}

// onHalfGrid reports whether start is a multiple of half a sample.
func onHalfGrid(start float64) bool { return 2*start == math.Round(2*start) }

// checkSearch runs fractionalSearch and its oracle from (start, cfo) and
// checks the contract between them. On the half-sample grid: Q within
// qRelBound and the same (δt, δf). Elsewhere: Q within qFracBound, and the
// same (δt, δf) unless the oracle's own Q* values at the two picks — the
// quantity the search maximizes — are within qFracBound of each other, a
// tie rounding may break either way. It reports the relative Q error and
// whether the picks were such a tie.
func (d *Detector) checkSearch(ants [][]complex128, start, cfo float64, rs *refineScratch) (rel float64, tie bool, err error) {
	gt, gf, gq := d.fractionalSearch(ants, start, cfo, rs)
	ors := d.newRefineScratch()
	wt, wf, wq := d.fractionalSearchOracle(ants, start, cfo, ors)
	bound := qFracBound(len(ants[0]))
	if onHalfGrid(start) {
		bound = qRelBound
	}
	if m := math.Max(math.Abs(gq), math.Abs(wq)); m > 0 {
		rel = math.Abs(gq-wq) / m
	}
	if !qClose(gq, wq, bound) {
		return rel, false, fmt.Errorf("search (%v, %v, Q %v), oracle (%v, %v, Q %v): Q outside the bound %g", gt, gf, gq, wt, wf, wq, bound)
	}
	if gt == wt && gf == wf {
		return rel, false, nil
	}
	if onHalfGrid(start) {
		return rel, false, fmt.Errorf("search (%v, %v, Q %v), oracle (%v, %v, Q %v): picks differ on the half-sample grid", gt, gf, gq, wt, wf, wq)
	}
	qg := qStar(d.evalQOracle(ants, start, cfo, gt, gf, ors), 0)
	qw := qStar(d.evalQOracle(ants, start, cfo, wt, wf, ors), 0)
	if !qClose(qg, qw, bound) {
		return rel, false, fmt.Errorf("search (%v, %v, Q %v), oracle (%v, %v, Q %v): oracle Q* at the picks %v and %v is no tie",
			gt, gf, gq, wt, wf, wq, qg, qw)
	}
	return rel, true, nil
}

// searchTally collects checkSearch outcomes by start class, on the
// half-sample grid (0) or off it (1), for the tests' logs.
type searchTally struct {
	n, ties [2]int
	worst   [2]float64
}

func (s *searchTally) add(start, rel float64, tie bool) {
	c := 1
	if onHalfGrid(start) {
		c = 0
	}
	s.n[c]++
	s.worst[c] = math.Max(s.worst[c], rel)
	if tie {
		s.ties[c]++
	}
}

func (s *searchTally) String() string {
	return fmt.Sprintf("half-sample grid: %d searches, worst relative Q error %.2g; fractional: %d searches, worst %.2g, %d ties",
		s.n[0], s.worst[0], s.n[1], s.worst[1], s.ties[1])
}

// TestFractionalSearchMatchesOracle is the differential test of the search
// against the per-hypothesis oracle under checkSearch's contract. The cases
// cover SF 7–9, every OSF, one and two antennas, starts on the half-sample
// grid and off it, integer starts whose downchirps run past the end of the
// trace (the fused kernel's unrotated zero tail), negative starts (rows
// left out of the sums) and CFOs for which a hypothesis has exactly zero
// correction.
func TestFractionalSearchMatchesOracle(t *testing.T) {
	var tally searchTally
	for sf := 7; sf <= 9; sf++ {
		for _, osf := range []int{1, 2, 4, 8} {
			p := lora.MustParams(sf, 4, 125e3, osf)
			ants, start, cfo := diffTrace(t, p, int64(100*sf+osf))
			sym := float64(p.SymbolSamples())
			end := float64(len(ants[0]))
			cases := []struct{ start, cfo float64 }{
				{start, cfo},
				{start + 0.25*float64(osf), cfo - 0.4},
				{math.Round(start), cfo},             // refine's integer starts
				{math.Round(start) + 0.5, cfo - 0.4}, // and half-sample ones (OSF 1)
				{start - 1.5, 0.5},                   // phase 1 reaches δf = −0.5: zero CFO
				{start + 3, 0},                       // phase 1 ends at δf = 0: zero CFO
				{end - 6*sym, cfo},                   // integer start, downchirps past the end
				{end - 11*sym + 0.5, cfo},            // last downchirp past the end
				{-3*sym - 0.25, cfo},                 // first rows before sample 0
				{-2 * sym, 0.5},                      // integer negative start, zero CFO
			}
			for _, nAnt := range []int{1, 2} {
				d := NewDetector(p)
				rs := d.newRefineScratch()
				for ci, c := range cases {
					rel, tie, err := d.checkSearch(ants[:nAnt], c.start, c.cfo, rs)
					tally.add(c.start, rel, tie)
					if err != nil {
						t.Errorf("SF%d OSF%d ants=%d case %d: %v", sf, osf, nAnt, ci, err)
					}
					if tie {
						t.Logf("SF%d OSF%d ants=%d case %d: picks differ on a Q* tie", sf, osf, nAnt, ci)
					}
				}
			}
		}
	}
	t.Log(&tally)
}

// TestFractionalSearchAnchorsAtTraceEdges places the search's first anchor
// exactly on sample 0, or its last read exactly on the trace's final
// sample, where the interpolated path must run, and one sample further out,
// where the search must fall back. Both paths are held to the oracle under
// checkSearch's contract, on the half-sample grid and off it.
func TestFractionalSearchAnchorsAtTraceEdges(t *testing.T) {
	var tally searchTally
	for sf := 7; sf <= 8; sf++ {
		for _, osf := range []int{1, 2, 8} {
			p := lora.MustParams(sf, 4, 125e3, osf)
			ants, start, cfo := diffTrace(t, p, int64(100*sf+osf))
			reach := float64(osf)/2 + 1 // the sweep's extent either side of the start
			tail := 11*p.SymbolSamples() + (p.N()-1)*osf
			off := int(start - reach) // drop the samples before the packet
			for _, frac := range []float64{0, 0.5, 0.37} {
				for _, out := range []int{0, 1} {
					// Head: the first anchor floor(s−reach) is −out.
					s := reach + frac - float64(out)
					head := make([][]complex128, len(ants))
					for i := range ants {
						head[i] = ants[i][off:]
					}
					// Tail: the last anchor ceil(s'+reach) reads up to sample
					// len−1+out.
					s2 := math.Floor(start) + frac
					end := int(math.Ceil(s2+reach)) + tail + 1 - out
					tailAnts := make([][]complex128, len(ants))
					for i := range ants {
						tailAnts[i] = ants[i][:end]
					}
					for _, c := range []struct {
						name  string
						ants  [][]complex128
						start float64
					}{{"head", head, s}, {"tail", tailAnts, s2}} {
						d := NewDetector(p)
						rs := d.newRefineScratch()
						rel, tie, err := d.checkSearch(c.ants, c.start, cfo, rs)
						tally.add(c.start, rel, tie)
						if err != nil {
							t.Errorf("SF%d OSF%d %s start %v: %v", sf, osf, c.name, c.start, err)
						}
						if rs.fallbacks != out {
							t.Errorf("SF%d OSF%d %s start %v: %d fallbacks, want %d", sf, osf, c.name, c.start, rs.fallbacks, out)
						}
					}
				}
			}
		}
	}
	t.Log(&tally)
}

// TestEvalQMatchesOracle compares single Q evaluations at random hypotheses
// around a packet and at the trace edges: the energy within qRelBound, and
// each peak bin equal unless the oracle's energies at the two bins are
// within qRelBound of each other.
func TestEvalQMatchesOracle(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 4)
	ants, start, cfo := diffTrace(t, p, 3)
	d := NewDetector(p)
	rs := d.newRefineScratch()
	ors := d.newRefineScratch()
	rng := rand.New(rand.NewSource(4))
	sym := float64(p.SymbolSamples())
	binEnergy := func(v []complex128, i int) float64 {
		return real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
	}
	ties, worst := 0, 0.0
	for i := 0; i < 200; i++ {
		s := start + (rng.Float64()-0.5)*4*sym
		switch i % 4 {
		case 1:
			s = math.Round(s) // integer start
		case 2:
			s = float64(len(ants[0])) - float64(rng.Intn(12*int(sym))) // tail
		case 3:
			s = -float64(rng.Intn(11 * int(sym))) // head
		}
		dt := float64(rng.Intn(9)-4) / 2
		df := float64(rng.Intn(33)-16) / 16
		c := cfo
		if i%5 == 0 {
			c = -df // zero net CFO
		}
		got := d.evalQ(ants[:1+i%2], s, c, dt, df, rs)
		want := d.evalQOracle(ants[:1+i%2], s, c, dt, df, ors)
		if !qClose(got.energy, want.energy, qRelBound) {
			t.Fatalf("hypothesis %d (start %v, cfo %v, dt %v, df %v): %+v, oracle %+v", i, s, c, dt, df, got, want)
		}
		if want.energy > 0 {
			worst = math.Max(worst, math.Abs(got.energy-want.energy)/want.energy)
		}
		for _, b := range []struct {
			got, want int
			sum       []complex128
		}{{got.upBin, want.upBin, ors.upSum}, {got.downBin, want.downBin, ors.downSum}} {
			if b.got == b.want {
				continue
			}
			if !qClose(binEnergy(b.sum, b.got), binEnergy(b.sum, b.want), qRelBound) {
				t.Fatalf("hypothesis %d (start %v, cfo %v, dt %v, df %v): %+v, oracle %+v", i, s, c, dt, df, got, want)
			}
			ties++
		}
	}
	t.Logf("largest relative Q error %.3g (bound %g), %d peak-bin ties", worst, qRelBound, ties)
}

// TestFractionalSearchResolvesIntegerCFOAlias starts the search from the
// exact timing and a coarse CFO exactly one cycle off either way. Q at the
// true δf = ∓1 equals Q at its alias δf = 0 up to rounding, so phase 1's
// pick between the endpoints of its range is decided by rounding; the
// search must still land on the true offset.
func TestFractionalSearchResolvesIntegerCFOAlias(t *testing.T) {
	for sf := 7; sf <= 9; sf++ {
		for _, osf := range []int{1, 2, 4, 8} {
			p := lora.MustParams(sf, 4, 125e3, osf)
			ants, start, cfo := diffTrace(t, p, int64(100*sf+osf))
			d := NewDetector(p)
			rs := d.newRefineScratch()
			for _, off := range []float64{-1, 1} {
				dt, df, q := d.fractionalSearch(ants, start, cfo+off, rs)
				if q <= 0 {
					t.Errorf("SF%d OSF%d offset %+v: search found nothing", sf, osf, off)
					continue
				}
				if df != -off || math.Abs(dt) > 1 {
					t.Errorf("SF%d OSF%d coarse CFO off by %+v cycle: search (δt %v, δf %v), want δf %v",
						sf, osf, off, dt, df, -off)
				}
			}
		}
	}
}

// FuzzQSearchMatchesOracle drives fractionalSearch and its oracle over
// random configurations under checkSearch's contract: SF 7–9, OSF 1/2/4/8,
// one or two antennas, starts near the packet (fractional, or on the
// half-sample grid as refine passes them), before sample 0 and overhanging
// the end of the trace, and any CFO within ±4 cycles.
func FuzzQSearchMatchesOracle(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int64(1), uint8(0), 0.37, 0.2)
	f.Add(uint8(1), uint8(3), uint8(1), int64(2), uint8(0), -3.75, -1.0)
	f.Add(uint8(2), uint8(1), uint8(1), int64(3), uint8(1), 2.25, 0.5)
	f.Add(uint8(0), uint8(2), uint8(0), int64(4), uint8(2), 5.0, 3.1)
	f.Add(uint8(1), uint8(0), uint8(1), int64(5), uint8(2), 100.5, -2.0)
	f.Add(uint8(2), uint8(3), uint8(0), int64(6), uint8(1), 7.0, 0.0)
	f.Add(uint8(1), uint8(0), uint8(0), int64(7), uint8(3), -3.3, 0.6)
	f.Add(uint8(0), uint8(3), uint8(1), int64(1), uint8(3), 1.6, -0.3)
	f.Fuzz(func(t *testing.T, sfSel, osfSel, antSel uint8, seed int64, where uint8, off, cfoOff float64) {
		if math.IsNaN(off) || math.IsInf(off, 0) || math.IsNaN(cfoOff) || math.IsInf(cfoOff, 0) {
			t.Skip("non-finite offset")
		}
		p := lora.MustParams(7+int(sfSel%3), 4, 125e3, []int{1, 2, 4, 8}[osfSel%4])
		ants, start, cfo := diffTrace(t, p, seed%8)
		sym := float64(p.SymbolSamples())
		switch where % 4 {
		case 0: // near the packet, within half a symbol
			start += math.Mod(off, sym/2)
		case 1: // the first rows before sample 0
			start = -math.Mod(math.Abs(off), 11*sym)
		case 2: // the last rows past the end of the trace
			start = float64(len(ants[0])) - 12*sym + math.Mod(math.Abs(off), 11*sym)
		case 3: // near the packet on the half-sample grid, as refine passes it
			start = math.Round(2*(start+math.Mod(off, sym/2))) / 2
		}
		cfo += math.Mod(cfoOff, 4)
		d := NewDetector(p)
		if _, _, err := d.checkSearch(ants[:1+antSel%2], start, cfo, d.newRefineScratch()); err != nil {
			t.Fatalf("SF%d OSF%d start %v cfo %v: %v", p.SF, p.OSF, start, cfo, err)
		}
	})
}

// TestFractionalSearchSteadyStateAllocs pins the search's zero-allocation
// contract once its scratch has grown to the antenna count.
func TestFractionalSearchSteadyStateAllocs(t *testing.T) {
	for _, nAnt := range []int{1, 2} {
		t.Run(fmt.Sprintf("ants=%d", nAnt), func(t *testing.T) {
			p := lora.MustParams(7, 4, 125e3, 8)
			ants, start, cfo := diffTrace(t, p, 5)
			d := NewDetector(p)
			rs := d.newRefineScratch()
			d.fractionalSearch(ants[:nAnt], start, cfo, rs)
			if n := testing.AllocsPerRun(5, func() {
				d.fractionalSearch(ants[:nAnt], start, cfo, rs)
			}); n != 0 {
				t.Errorf("fractionalSearch allocates %v times per call after warm-up", n)
			}
		})
	}
}

// TestQStarMatchesPerLineEvalQ checks the shift identity phases 2 and 3
// rest on: Q* on line l read from the first line's Q, qStar(r, l), against
// Q* of line l's own evalQ, for l = 0, 1, 2 and first lines across phase
// 1's range, gated directly on line l's peaks at bin 0. The energy must
// agree within qRelBound and the gate exactly, unless line l's own spectrum
// holds a tie: its nonzero energies at its own peak and at the first
// line's peak, shifted by l, within qRelBound of each other. The starts cover a packet,
// upchirp rows all before sample 0, downchirp rows all past the end
// (all-zero sums), downchirp rows cut at their start (a few samples, so a
// flat spectrum: ties), and an all-zero trace.
func TestQStarMatchesPerLineEvalQ(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 4)
	ants, start, cfo := diffTrace(t, p, 3)
	d := NewDetector(p)
	rs := d.newRefineScratch()
	n, sym := p.N(), p.SymbolSamples()
	// The packet with the samples before its ninth symbol cut off, so its
	// upchirp rows start before sample 0; with everything from a few
	// samples before its downchirps on cut off, so every δt below reads
	// them as zeros; and cut at its downchirps' start.
	cut := func(lo, hi int) [][]complex128 {
		out := make([][]complex128, len(ants))
		for i := range ants {
			out[i] = ants[i][lo:hi]
		}
		return out
	}
	off, end := int(start)+9*sym, int(start)+10*sym
	zeros := [][]complex128{make([]complex128, len(ants[0]))}
	cases := []struct {
		name  string
		ants  [][]complex128
		start float64
	}{
		{"packet", ants, start},
		{"integer start", ants, math.Round(start)},
		{"upchirps before sample 0", cut(off, len(ants[0])), start - float64(off)},
		{"downchirps past the end", cut(0, end-8), start},
		{"downchirps cut at their start", cut(0, end), start},
		{"all-zero trace", zeros, start},
	}
	binEnergy := func(v []complex128, b int) float64 {
		x := v[(b%n+n)%n]
		return real(x)*real(x) + imag(x)*imag(x)
	}
	var passed, zero, zeroPassed, ties int
	for _, c := range cases {
		for _, dt := range []float64{-2, -0.5, 0, 1.5} {
			for _, f0 := range []float64{-1, -0.5, -0.0625} {
				r := d.evalQ(c.ants, c.start, cfo, dt, f0, rs)
				if r.upZero || r.downZero {
					zero++
				}
				for l := 0; l < 3; l++ {
					own := d.evalQ(c.ants, c.start, cfo, dt, f0+float64(l), rs)
					got, want := qStar(r, l), 0.0
					if own.upBin == 0 && own.downBin == 0 {
						want = own.energy
					}
					if (got == 0) != (want == 0) {
						tie := true
						for _, b := range []struct {
							own, first int
							sum        []complex128
						}{{own.upBin, r.upBin, rs.upSum}, {own.downBin, r.downBin, rs.downSum}} {
							e := binEnergy(b.sum, b.own)
							if b.own != b.first-l && (e == 0 || !qClose(e, binEnergy(b.sum, b.first-l), qRelBound)) {
								tie = false // an all-zero sum is no tie
							}
						}
						if tie {
							ties++
							continue
						}
					}
					if (got == 0) != (want == 0) || !qClose(got, want, qRelBound) {
						t.Errorf("%s δt %v δf %v line %d: Q* %v from the first line %+v, %v from its own %+v",
							c.name, dt, f0, l, got, r, want, own)
					}
					if want > 0 {
						passed++
						if l > 0 && (r.upZero || r.downZero) {
							zeroPassed++
						}
					}
				}
			}
		}
	}
	if passed == 0 || zero == 0 || zeroPassed == 0 {
		t.Errorf("vacuous: %d gated hypotheses, %d with an all-zero sum, %d of them gated on lines 1–2", passed, zero, zeroPassed)
	}
	t.Logf("%d hypotheses passed the gate, %d had an all-zero sum, %d passed with one on lines 1–2, %d gates differed on a tie",
		passed, zero, zeroPassed, ties)
}

// TestPhase1SweepMatchesPerHypothesis checks phase 1's symbol-axis sweep
// against one BuildPreambleRotation + PreambleSpectra per hypothesis: Q
// within qRelBound at every δf, and the same pick, for starts on and off
// the half-sample grid, with upchirp rows before sample 0, and on one and
// two antennas.
func TestPhase1SweepMatchesPerHypothesis(t *testing.T) {
	for _, osf := range []int{1, 8} {
		p := lora.MustParams(8, 4, 125e3, osf)
		ants, start, cfo := diffTrace(t, p, int64(40+osf))
		sym := float64(p.SymbolSamples())
		d := NewDetector(p)
		rs := d.newRefineScratch()
		for _, s := range []float64{start, math.Round(start), start + 3.25, -3*sym + 0.5} {
			for _, c := range []float64{cfo, cfo + 0.4, cfo - 0.97, 0.5} {
				for _, nAnt := range []int{1, 2} {
					a := ants[:nAnt]
					bestF := d.phase1(a, s, c, rs)
					wantF, wantQ := 0.0, -1.0
					for i := 0; i < lora.CFOSweepSteps; i++ {
						f := -1 + float64(i)/lora.CFOSweepSteps
						d.demod.BuildPreambleRotation(&rs.rot, c+f)
						d.demod.SweepSpectra(rs.upSum, rs.downSum, &rs.rows, i, &rs.rot)
						got := spectraQ(rs.upSum, rs.downSum)
						want := d.evalRows(rs)
						if !qClose(got.energy, want.energy, qRelBound) {
							t.Fatalf("OSF %d start %v cfo %v ants %d δf %v: sweep Q %v, per hypothesis %v",
								osf, s, c, nAnt, f, got.energy, want.energy)
						}
						if want.energy > wantQ {
							wantQ, wantF = want.energy, f
						}
					}
					if bestF != wantF {
						t.Errorf("OSF %d start %v cfo %v ants %d: sweep picks δf %v, per hypothesis %v",
							osf, s, c, nAnt, bestF, wantF)
					}
				}
			}
		}
	}
}

// TestFractionalSearchGatedNothingReturnsZero pins what a search returns
// when no hypothesis puts both peaks at bin 0 (noise), or every sum is zero
// (silence): Q* = 0 at δt = −(OSF/2 + 1), the first step of phase 3 from the
// first step of phase 2, on phase 2's first line.
func TestFractionalSearchGatedNothingReturnsZero(t *testing.T) {
	for _, osf := range []int{1, 8} {
		p := lora.MustParams(8, 4, 125e3, osf)
		rng := rand.New(rand.NewSource(int64(70 + osf)))
		noise := make([]complex128, 20*p.SymbolSamples())
		for i := range noise {
			noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		silence := make([]complex128, len(noise))
		d := NewDetector(p)
		rs := d.newRefineScratch()
		start := float64(3 * p.SymbolSamples())
		for _, c := range []struct {
			name string
			ants [][]complex128
		}{{"noise", [][]complex128{noise}}, {"silence", [][]complex128{silence}}} {
			lines, _ := phase2Lines(d.phase1(c.ants, start, 1.3, rs))
			dt, df, q := d.fractionalSearch(c.ants, start, 1.3, rs)
			if want := -(float64(osf)/2 + 1); q != 0 || dt != want || df != lines[0] {
				t.Errorf("OSF %d %s: search returned (δt %v, δf %v, Q %v), want (%v, %v, 0)",
					osf, c.name, dt, df, q, want, lines[0])
			}
		}
	}
}
