package detect

import (
	"math"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/stats"
)

// peakNearZeroMedian is the selection form of peakNearZero: the largest of
// the bins within ±2 of bin 0 against 8× the median bin.
func peakNearZeroMedian(acc []float64, sel *stats.Selector) bool {
	n := len(acc)
	best := 0.0
	for db := -2; db <= 2; db++ {
		if v := acc[(db+n)%n]; v > best {
			best = v
		}
	}
	floor := sel.Median(acc)
	if floor <= 0 {
		return best > 0
	}
	return best >= 8*floor
}

// TestPeakNearZeroMatchesMedian holds the counting test to the median test
// on random vectors of odd and even length: noise floors with ties, zeros,
// negative values, subnormals, NaN and ±Inf, and peaks placed exactly at,
// just above and just below 8× the median, where the count falls between
// the two middle order statistics.
func TestPeakNearZeroMatchesMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var sel stats.Selector
	specials := []float64{0, math.Copysign(0, -1), 5e-324, 0x1p-1030, 0x1p-1000, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), -1}
	var between, verdicts [2]int
	for trial := 0; trial < 40000; trial++ {
		n := []int{1, 2, 3, 4, 5, 6, 7, 64, 65, 256, 257}[rng.Intn(11)]
		acc := make([]float64, n)
		scale := math.Pow(2, float64(rng.Intn(2100)-1060))
		for i := range acc {
			acc[i] = rng.ExpFloat64() * scale
		}
		switch rng.Intn(4) {
		case 0: // ties: a few distinct values
			vals := []float64{rng.ExpFloat64() * scale, rng.ExpFloat64() * scale, 0}
			for i := range acc {
				acc[i] = vals[rng.Intn(len(vals))]
			}
		case 1: // special values
			for k := rng.Intn(3) + 1; k > 0; k-- {
				acc[rng.Intn(n)] = specials[rng.Intn(len(specials))]
			}
		}
		// Put the near-zero peak at the median's 8× boundary.
		m := sel.Median(acc)
		peak := 8 * m
		switch rng.Intn(4) {
		case 1:
			peak = math.Nextafter(peak, math.Inf(1))
		case 2:
			peak = math.Nextafter(peak, math.Inf(-1))
		case 3:
			peak = rng.ExpFloat64() * 20 * scale
		}
		acc[[]int{0, 1, 2, n - 1, n - 2}[rng.Intn(5)]%n] = peak
		got, want := peakNearZero(acc, &sel), peakNearZeroMedian(acc, &sel)
		if got != want {
			t.Fatalf("trial %d, n %d: count says %v, median says %v on %v", trial, n, got, want, acc)
		}
		if want {
			verdicts[1]++
		} else {
			verdicts[0]++
		}
		if b := countBetween(acc); b >= 0 {
			between[b]++
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 || between[0] == 0 || between[1] == 0 {
		t.Errorf("vacuous: verdicts %v, counts between the middle statistics %v", verdicts, between)
	}
	t.Logf("verdicts (fail, pass) %v; count between the middle statistics (fail, pass) %v", verdicts, between)
}

// countBetween reports, for a finite vector whose count of values v with
// 8v ≤ best falls between the two middle order statistics, the verdict
// (0 or 1), and −1 for any other vector.
func countBetween(acc []float64) int {
	n := len(acc)
	best := 0.0
	for db := -2; db <= 2; db++ {
		if v := acc[(db+n)%n]; v > best {
			best = v
		}
	}
	low := 0
	for _, v := range acc {
		if v-v != 0 {
			return -1
		}
		if 8*v <= best {
			low++
		}
	}
	if best < countMinPeak || best > math.MaxFloat64 || low != (n-1)/2+1 {
		return -1
	}
	if peakNearZero(acc, nil) {
		return 1
	}
	return 0
}

// validateOracle is the per-adjustment validation that windowPeak's shared
// windows replaced: every adjustment dechirps its own windows, starting the
// CFO correction of upchirp k at symbol index k and of the downchirp at 10,
// and tests them with the median.
func (d *Detector) validateOracle(antennas [][]complex128, start, cfo float64, rs *refineScratch) bool {
	sym := d.p.SymbolSamples()
	hits, total := 0, 0
	for k := 0; k < lora.PreambleUpchirps; k++ {
		s := start + float64(k*sym)
		if s < 0 || int(s)+sym >= len(antennas[0]) {
			continue
		}
		total++
		d.demod.SumSignalVectorInto(rs.acc, rs.y, rs.buf, antennas, s, cfo, k, false)
		if peakNearZeroMedian(rs.acc, &rs.sel) {
			hits++
		}
	}
	if total < 4 || hits < total-2 {
		return false
	}
	s := start + float64(10*sym)
	if int(s)+sym < len(antennas[0]) && s >= 0 {
		d.demod.SumSignalVectorInto(rs.acc, rs.y, rs.buf, antennas, s, cfo, 10, true)
		return peakNearZeroMedian(rs.acc, &rs.sel)
	}
	return true
}

// TestValidatePreambleMatchesPerAdjustment checks the shared validation
// windows against per-adjustment validation on every candidate of two
// colliding traces and of the trace head and tail: the same verdict for
// every adjustment the refine loop tries.
func TestValidatePreambleMatchesPerAdjustment(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := p.SymbolSamples()
	var verdicts [2]int
	for _, seed := range []int64{7, 19} {
		tr := buildScanTrace(t, p, seed)
		d := NewDetector(p)
		cands := append([]candidate(nil), d.scanPreambles(tr.Antennas)...)
		rs, ors := d.newRefineScratch(), d.newRefineScratch()
		for ci, c := range cands {
			start, cfo, reject := d.coarse(tr.Antennas, c, rs)
			if reject != "" {
				continue
			}
			// The coarse start refine validates, and the same offset to
			// starts whose windows run off either end of the trace.
			for _, start := range []float64{start, math.Mod(start, float64(sym)) - float64(sym),
				float64(len(tr.Antennas[0])-9*sym) + math.Mod(start, float64(sym))} {
				rs.upWin, rs.downWin = [len(rs.upWin)]window{}, [len(rs.downWin)]window{}
				for adj := -2; adj <= 2; adj++ {
					got := d.validatePreamble(tr.Antennas, start, cfo, adj, rs)
					want := d.validateOracle(tr.Antennas, start+float64(adj*sym), cfo, ors)
					if got != want {
						t.Errorf("seed %d candidate %d start %v adj %d: shared windows say %v, per adjustment %v",
							seed, ci, start, adj, got, want)
					}
					if want {
						verdicts[1]++
					} else {
						verdicts[0]++
					}
				}
			}
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Errorf("vacuous: verdicts (fail, pass) %v", verdicts)
	}
	t.Logf("verdicts (fail, pass) %v", verdicts)
}
