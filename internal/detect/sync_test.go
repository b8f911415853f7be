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
	if d.qStar(center) == 0 {
		t.Error("Q* zero at the true parameters")
	}
	if d.qStar(alias) != 0 {
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
	if d.qStar(r) != 0 {
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

// evalQOracle is the per-hypothesis Q evaluation the shared-row search
// replaced, kept as the reference it must match within qRelBound: every row
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
	// Phase 1: δt = 0, δf from −1 to 0 in steps of 1/16; maximize Q.
	bestF, bestQ := 0.0, -1.0
	for i := 0; i <= 16; i++ {
		f := -1 + float64(i)/16
		r := d.evalQOracle(antennas, start, cfo, 0, f, rs)
		if r.energy > bestQ {
			bestQ, bestF = r.energy, f
		}
	}

	// Phase 2: δt swept at half-sample steps on the lines δf* and δf*+1,
	// or on all of −1, 0 and 1 when δf* is an endpoint of phase 1's range
	// (Q(−1) = Q(0), so rounding alone picked it); maximize Q*.
	halfChip := float64(d.p.OSF) / 2
	bestT, bestF2, bestQS := 0.0, bestF, -1.0
	lines := []float64{bestF, bestF + 1}
	if bestF == -1 || bestF == 0 {
		lines = []float64{-1, 0, 1}
	}
	for _, f := range lines {
		steps := int(4*halfChip) + 3
		for i := 0; i < steps; i++ {
			t := -halfChip - 0.5 + float64(i)/2
			r := d.evalQOracle(antennas, start, cfo, t, f, rs)
			if qs := d.qStar(r); qs > bestQS {
				bestQS, bestT, bestF2 = qs, t, f
			}
		}
	}
	if bestQS < 0 {
		return 0, bestF, bestQ
	}

	// Phase 3: δt from bestT−1/2 to bestT+1/2 in steps of 1/U.
	u := d.p.OSF
	finalT, finalQ := bestT, -1.0
	for i := 0; i <= u; i++ {
		t := bestT - 0.5 + float64(i)/float64(u)
		r := d.evalQOracle(antennas, start, cfo, t, bestF2, rs)
		if qs := d.qStar(r); qs > finalQ {
			finalQ, finalT = qs, t
		}
	}
	if finalQ < 0 {
		return bestT, bestF2, bestQS
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

// qRelBound is the relative error the factored Q search may add against
// evalQOracle. Summing the rows in the time domain reorders the rounding of
// a sum of 10·antennas rows, and the oracle's kernel rounds each CFO phase
// at the magnitude of phase0 (up to a few hundred radians, ~1e-14 rad)
// where the factored rotation rounds it at the magnitude of the ramp. The
// measured errors are ~1e-15 at Q's peak and up to ~4e-14 at off-peak
// hypotheses, inside the bound.
const qRelBound = 1e-13

// qClose reports whether a and b agree within qRelBound, relative to the
// larger magnitude.
func qClose(a, b float64) bool {
	return math.Abs(a-b) <= qRelBound*math.Max(math.Abs(a), math.Abs(b))
}

// checkSearch runs fractionalSearch and its oracle from (start, cfo) and
// checks the contract between them: Q within qRelBound, and the same
// (δt, δf) unless the oracle's own Q* values at the two picks — the
// quantity the search maximizes — are within qRelBound of each other, a tie
// rounding may break either way. It reports whether the picks were such a
// tie.
func (d *Detector) checkSearch(ants [][]complex128, start, cfo float64, rs *refineScratch) (tie bool, err error) {
	gt, gf, gq := d.fractionalSearch(ants, start, cfo, rs)
	ors := d.newRefineScratch()
	wt, wf, wq := d.fractionalSearchOracle(ants, start, cfo, ors)
	if !qClose(gq, wq) {
		return false, fmt.Errorf("search (%v, %v, Q %v), oracle (%v, %v, Q %v): Q outside the bound", gt, gf, gq, wt, wf, wq)
	}
	if gt == wt && gf == wf {
		return false, nil
	}
	qg := d.qStar(d.evalQOracle(ants, start, cfo, gt, gf, ors))
	qw := d.qStar(d.evalQOracle(ants, start, cfo, wt, wf, ors))
	if !qClose(qg, qw) {
		return false, fmt.Errorf("search (%v, %v, Q %v), oracle (%v, %v, Q %v): oracle Q* at the picks %v and %v is no tie",
			gt, gf, gq, wt, wf, wq, qg, qw)
	}
	return true, nil
}

// TestFractionalSearchMatchesOracle is the differential test of the
// shared-row search against the per-hypothesis oracle under checkSearch's
// contract; ties are counted and logged. The cases cover SF 7–9, every OSF
// (phase 3's reuse index depends on it), one and two antennas, fractional
// starts, integer starts whose downchirps run past the end of the trace
// (the fused kernel's unrotated zero tail), negative starts (rows left out
// of the sums) and CFOs for which a hypothesis has exactly zero correction.
func TestFractionalSearchMatchesOracle(t *testing.T) {
	ties, searches := 0, 0
	for sf := 7; sf <= 9; sf++ {
		for _, osf := range []int{1, 2, 4, 8} {
			p := lora.MustParams(sf, 4, 125e3, osf)
			ants, start, cfo := diffTrace(t, p, int64(100*sf+osf))
			sym := float64(p.SymbolSamples())
			end := float64(len(ants[0]))
			cases := []struct{ start, cfo float64 }{
				{start, cfo},
				{start + 0.25*float64(osf), cfo - 0.4},
				{start - 1.5, 0.5},        // phase 1 reaches δf = −0.5: zero CFO
				{start + 3, 0},            // phase 1 ends at δf = 0: zero CFO
				{end - 6*sym, cfo},        // integer start, downchirps past the end
				{end - 11*sym + 0.5, cfo}, // fractional start, last downchirp past the end
				{-3*sym - 0.25, cfo},      // first rows before sample 0
				{-2 * sym, 0.5},           // integer negative start, zero CFO
			}
			for _, nAnt := range []int{1, 2} {
				d := NewDetector(p)
				rs := d.newRefineScratch()
				for ci, c := range cases {
					tie, err := d.checkSearch(ants[:nAnt], c.start, c.cfo, rs)
					searches++
					if err != nil {
						t.Errorf("SF%d OSF%d ants=%d case %d: %v", sf, osf, nAnt, ci, err)
					}
					if tie {
						ties++
						t.Logf("SF%d OSF%d ants=%d case %d: picks differ on a Q* tie", sf, osf, nAnt, ci)
					}
				}
			}
		}
	}
	t.Logf("%d searches, %d ties", searches, ties)
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
		if !qClose(got.energy, want.energy) {
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
			if !qClose(binEnergy(b.sum, b.got), binEnergy(b.sum, b.want)) {
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
// one or two antennas, starts near the packet (fractional), before sample 0
// and overhanging the end of the trace, and any CFO within ±4 cycles.
func FuzzQSearchMatchesOracle(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int64(1), uint8(0), 0.37, 0.2)
	f.Add(uint8(1), uint8(3), uint8(1), int64(2), uint8(0), -3.75, -1.0)
	f.Add(uint8(2), uint8(1), uint8(1), int64(3), uint8(1), 2.25, 0.5)
	f.Add(uint8(0), uint8(2), uint8(0), int64(4), uint8(2), 5.0, 3.1)
	f.Add(uint8(1), uint8(0), uint8(1), int64(5), uint8(2), 100.5, -2.0)
	f.Add(uint8(2), uint8(3), uint8(0), int64(6), uint8(1), 7.0, 0.0)
	f.Fuzz(func(t *testing.T, sfSel, osfSel, antSel uint8, seed int64, where uint8, off, cfoOff float64) {
		if math.IsNaN(off) || math.IsInf(off, 0) || math.IsNaN(cfoOff) || math.IsInf(cfoOff, 0) {
			t.Skip("non-finite offset")
		}
		p := lora.MustParams(7+int(sfSel%3), 4, 125e3, []int{1, 2, 4, 8}[osfSel%4])
		ants, start, cfo := diffTrace(t, p, seed%8)
		sym := float64(p.SymbolSamples())
		switch where % 3 {
		case 0: // near the packet, within half a symbol
			start += math.Mod(off, sym/2)
		case 1: // the first rows before sample 0
			start = -math.Mod(math.Abs(off), 11*sym)
		case 2: // the last rows past the end of the trace
			start = float64(len(ants[0])) - 12*sym + math.Mod(math.Abs(off), 11*sym)
		}
		cfo += math.Mod(cfoOff, 4)
		d := NewDetector(p)
		if _, err := d.checkSearch(ants[:1+antSel%2], start, cfo, d.newRefineScratch()); err != nil {
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
