package peaks

import (
	"math"
	"math/rand"
	"testing"

	"tnb/internal/lora"
)

func TestFindSinglePeak(t *testing.T) {
	y := make([]float64, 64)
	y[20] = 10
	ps := FindInto(nil, y, 0, 0)
	if len(ps) != 1 || ps[0].Bin != 20 || ps[0].Height != 10 {
		t.Fatalf("peaks = %v", ps)
	}
}

func TestFindMultiplePeaksSorted(t *testing.T) {
	y := make([]float64, 128)
	y[10], y[50], y[90] = 5, 9, 7
	ps := FindInto(nil, y, 1, 0)
	if len(ps) != 3 {
		t.Fatalf("found %d peaks", len(ps))
	}
	if ps[0].Bin != 50 || ps[1].Bin != 90 || ps[2].Bin != 10 {
		t.Errorf("order: %v", ps)
	}
}

func TestFindSelectivityFiltersRipple(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	y := make([]float64, 256)
	for i := range y {
		y[i] = rng.Float64() * 0.5 // ripple below sel
	}
	y[100] = 10
	ps := FindInto(nil, y, 2, 0)
	if len(ps) != 1 || ps[0].Bin != 100 {
		t.Fatalf("ripple leaked through: %v", ps)
	}
}

func TestFindWrapAroundPeak(t *testing.T) {
	// Peak exactly at bin 0 with energy spilling to the last bin: the
	// circular scan must report it once.
	y := make([]float64, 64)
	y[0] = 10
	y[63] = 6
	y[32] = 8
	ps := FindInto(nil, y, 1, 0)
	if len(ps) != 2 {
		t.Fatalf("peaks = %v", ps)
	}
	bins := map[int]bool{ps[0].Bin: true, ps[1].Bin: true}
	if !bins[0] || !bins[32] {
		t.Errorf("expected bins 0 and 32, got %v", ps)
	}
}

func TestFindMaxPeaksLimit(t *testing.T) {
	y := make([]float64, 256)
	for i := 0; i < 8; i++ {
		y[i*32+5] = float64(10 + i)
	}
	ps := FindInto(nil, y, 1, 3)
	if len(ps) != 3 {
		t.Fatalf("limit not applied: %d peaks", len(ps))
	}
	if ps[0].Height != 17 || ps[2].Height != 15 {
		t.Errorf("kept wrong peaks: %v", ps)
	}
}

func TestFindFlatSignal(t *testing.T) {
	y := []float64{3, 3, 3, 3}
	if ps := FindInto(nil, y, 0, 0); len(ps) != 0 {
		t.Errorf("flat signal produced peaks: %v", ps)
	}
	if ps := FindInto(nil, nil, 0, 0); ps != nil {
		t.Error("nil input should give nil")
	}
}

func TestFindDefaultSelectivity(t *testing.T) {
	// Default sel is (max-min)/4; a bump of 20% of range must be dropped.
	y := make([]float64, 100)
	y[50] = 100
	y[20] = 15
	ps := FindInto(nil, y, 0, 0)
	if len(ps) != 1 || ps[0].Bin != 50 {
		t.Errorf("default selectivity: %v", ps)
	}
}

// TestFindIntoMatchesFind pins FindInto into a reused buffer against
// FindInto into a fresh one on random noisy vectors.
func TestFindIntoMatchesFind(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf []Peak
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(300)
		y := make([]float64, n)
		for i := range y {
			v := rng.NormFloat64()
			y[i] = v * v
		}
		// A few injected tones so most trials have real peaks.
		for k := 0; k < 1+rng.Intn(4); k++ {
			y[rng.Intn(n)] += 10 + 10*rng.Float64()
		}
		sel := 6 * stableMedian(y)
		maxPeaks := rng.Intn(6) // includes 0 = unlimited
		want := FindInto(nil, y, sel, maxPeaks)
		buf = FindInto(buf, y, sel, maxPeaks)
		if len(want) != len(buf) {
			t.Fatalf("trial %d: fresh=%d peaks, reused=%d", trial, len(want), len(buf))
		}
		for i := range want {
			if want[i] != buf[i] {
				t.Fatalf("trial %d peak %d: fresh=%+v reused=%+v", trial, i, want[i], buf[i])
			}
		}
	}
}

func stableMedian(y []float64) float64 {
	s := append([]float64(nil), y...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// TestFindIntoZeroSteadyStateAllocs pins the reuse contract.
func TestFindIntoZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	y := make([]float64, 256)
	for i := range y {
		v := rng.NormFloat64()
		y[i] = v * v
	}
	y[40] += 25
	y[90] += 18
	buf := FindInto(nil, y, 3, 0)
	if n := testing.AllocsPerRun(100, func() { buf = FindInto(buf, y, 3, 0) }); n != 0 {
		t.Fatalf("FindInto allocates %v/op with a reused buffer", n)
	}
}

// TestFindSortIsStable pins that equal-height peaks keep scan order, so the
// truncation to maxPeaks is deterministic.
func TestFindSortIsStable(t *testing.T) {
	y := make([]float64, 64)
	for _, bin := range []int{5, 20, 40, 57} {
		y[bin] = 10
	}
	got := FindInto(nil, y, 3, 0)
	if len(got) != 4 {
		t.Fatalf("got %d peaks, want 4", len(got))
	}
	for i, wantBin := range []int{5, 20, 40, 57} {
		if got[i].Bin != wantBin {
			t.Fatalf("peak %d at bin %d, want %d (stable order)", i, got[i].Bin, wantBin)
		}
	}
}

func TestHighestBin(t *testing.T) {
	if HighestBin([]float64{1, 5, 2}) != 1 {
		t.Error("HighestBin failed")
	}
}

func buildSinglePacketCalc(t *testing.T, start, cfoHz float64) (*Calculator, []int, lora.Params) {
	t.Helper()
	p := lora.MustParams(8, 4, 125e3, 8)
	payload := []uint8{1, 2, 3, 4, 5}
	shifts, _, err := lora.Encode(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	w := lora.NewWaveform(p, shifts)
	n0 := math.Floor(start)
	frac := start - n0
	sig := w.Render(frac, cfoHz, 0.3)
	rx := make([]complex128, int(n0)+len(sig)+100)
	copy(rx[int(n0):], sig)
	d := lora.NewDemodulator(p)
	calc := NewCalculator(d, [][]complex128{rx}, start, cfoHz*p.SymbolDuration(), len(shifts))
	return calc, shifts, p
}

func TestCalculatorSigVecPeaksAtShift(t *testing.T) {
	calc, shifts, _ := buildSinglePacketCalc(t, 1000.25, 1500)
	for k, h := range shifts {
		y := calc.SigVec(k)
		if got := HighestBin(y); got != h {
			t.Fatalf("symbol %d: peak at %d, want %d", k, got, h)
		}
	}
}

func TestCalculatorCachesVectors(t *testing.T) {
	calc, _, _ := buildSinglePacketCalc(t, 500, 0)
	a := calc.SigVec(0)
	b := calc.SigVec(0)
	if &a[0] != &b[0] {
		t.Error("SigVec should return the cached slice")
	}
}

func TestCalculatorPreamblePeaks(t *testing.T) {
	calc, _, p := buildSinglePacketCalc(t, 2000, -2000)
	hs := calc.PreamblePeakHeights()
	if len(hs) != lora.PreambleUpchirps {
		t.Fatalf("%d preamble heights", len(hs))
	}
	// All preamble peaks should be near the full coherent gain N².
	n2 := float64(p.N()) * float64(p.N())
	for i, h := range hs {
		if h < 0.8*n2 {
			t.Errorf("preamble peak %d height %g, want ≈%g", i, h, n2)
		}
	}
	// Preamble upchirps peak at bin 0 for the packet's own alignment.
	idx := -(lora.PreambleUpchirps + lora.SyncSymbols)
	if got := HighestBin(calc.SigVec(idx)); got != 0 {
		t.Errorf("first preamble symbol peak at %d", got)
	}
}

func TestCalculatorValueAtWraps(t *testing.T) {
	calc, shifts, p := buildSinglePacketCalc(t, 100, 0)
	y := calc.SigVec(0)
	want := y[shifts[0]]
	if got := calc.ValueAt(0, float64(shifts[0])+float64(p.N())); got != want {
		t.Errorf("ValueAt wrap: %g vs %g", got, want)
	}
	if got := calc.ValueAt(0, float64(shifts[0])-float64(p.N())); got != want {
		t.Errorf("ValueAt negative wrap: %g vs %g", got, want)
	}
}

func TestCalculatorInRange(t *testing.T) {
	calc, shifts, _ := buildSinglePacketCalc(t, 100, 0)
	if !calc.InRange(0) || !calc.InRange(len(shifts)-1) {
		t.Error("data symbols should be in range")
	}
	if calc.InRange(len(shifts)) {
		t.Error("past-the-end symbol should be out of range")
	}
	if !calc.InRange(-lora.PreambleUpchirps - lora.SyncSymbols) {
		t.Error("first preamble symbol should be in range")
	}
	if calc.InRange(-lora.PreambleUpchirps - lora.SyncSymbols - 1) {
		t.Error("before-preamble index should be out of range")
	}
}

func TestMaskPeakZeroesNeighborhood(t *testing.T) {
	y := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	MaskPeak(y, 0)
	if y[7] != 0 || y[0] != 0 || y[1] != 0 {
		t.Errorf("mask at 0 failed: %v", y)
	}
	if y[2] == 0 || y[6] == 0 {
		t.Error("mask too wide")
	}
}

func TestSiblingOffsetRelation(t *testing.T) {
	// Two packets offset in time and CFO: a symbol transmitted by packet B
	// must appear in packet A's signal vectors at the bin predicted by the
	// α difference (paper §5.3.2).
	p := lora.MustParams(8, 4, 125e3, 8)
	payloadB := []uint8{42, 43, 44, 45, 46, 47}
	shiftsB, _, err := lora.Encode(p, payloadB)
	if err != nil {
		t.Fatal(err)
	}
	wB := lora.NewWaveform(p, shiftsB)
	startB := 3000.5
	cfoB := 2200.0
	sigB := wB.Render(startB-math.Floor(startB), cfoB, 0)
	rx := make([]complex128, 400000)
	copy(rx[int(startB):], sigB)

	d := lora.NewDemodulator(p)
	// Packet A is imaginary (no signal) but has its own alignment.
	startA := 1000.25
	cfoA := -1800.0
	calcA := NewCalculator(d, [][]complex128{rx}, startA, cfoA*p.SymbolDuration(), 60)
	calcB := NewCalculator(d, [][]complex128{rx}, startB, cfoB*p.SymbolDuration(), len(shiftsB))

	n := float64(p.N())
	for _, k := range []int{3, 10, 20} {
		// True peak bin in B's own vector.
		binB := HighestBin(calcB.SigVec(k))
		if binB != shiftsB[k] {
			t.Fatalf("symbol %d of B demodulates to %d, want %d", k, binB, shiftsB[k])
		}
		// Where does B's symbol k land in A's timeline?
		tSym := calcB.SymbolStart(k)
		idxA := int(math.Floor((tSym - calcA.SymbolStart(0)) / float64(p.SymbolSamples())))
		// Predicted bin in A's vector: b + αA − αB (mod N).
		pred := math.Mod(float64(binB)+calcA.Alpha()-calcB.Alpha(), n)
		if pred < 0 {
			pred += n
		}
		for _, ai := range []int{idxA, idxA + 1} {
			y := calcA.SigVec(ai)
			pb := int(pred+0.5) % p.N()
			// The predicted bin (±1 for rounding) should hold substantial
			// energy in at least one of the two straddling symbols.
			v := math.Max(y[pb], math.Max(y[(pb+1)%p.N()], y[(pb+p.N()-1)%p.N()]))
			mean := 0.0
			for _, vv := range y {
				mean += vv
			}
			mean /= n
			if v > 10*mean {
				goto found
			}
		}
		t.Fatalf("symbol %d: no sibling energy at predicted bin %.1f", k, pred)
	found:
	}
}

// TestFindIntoAtMatchesFindInto pins the scan's fused path: given the first
// index of the minimum and a positive selectivity, FindIntoAt must return the
// same peaks as FindInto, which recomputes both itself. Covers ties at the
// minimum (the "first index" contract), minimum at index 0, and selectivities
// large enough that nothing survives.
func TestFindIntoAtMatchesFindInto(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var bufA, bufB []Peak
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(300)
		y := make([]float64, n)
		for i := range y {
			v := rng.NormFloat64()
			y[i] = v * v
		}
		switch trial % 5 {
		case 1: // ties at the minimum
			for i := range y {
				y[i] = math.Trunc(y[i] * 2)
			}
		case 2: // minimum at index 0
			y[0] = -1
		case 3: // injected tones
			for k := 0; k < 1+rng.Intn(4); k++ {
				y[rng.Intn(n)] += 10 + 10*rng.Float64()
			}
		}
		rot := 0
		for i, v := range y {
			if v < y[rot] {
				rot = i
			}
		}
		sel := 0.1 + 6*stableMedian(y) // keep sel > 0 per the contract
		if trial%7 == 0 {
			sel = 1e6 // provably nothing survives; both must return empty
		}
		maxPeaks := rng.Intn(6)
		bufA = FindInto(bufA, y, sel, maxPeaks)
		bufB = FindIntoAt(bufB, y, sel, maxPeaks, rot)
		if len(bufA) != len(bufB) {
			t.Fatalf("trial %d (n=%d sel=%v): FindInto=%d peaks, FindIntoAt=%d", trial, n, sel, len(bufA), len(bufB))
		}
		for i := range bufA {
			if bufA[i] != bufB[i] {
				t.Fatalf("trial %d peak %d: FindInto=%+v FindIntoAt=%+v", trial, i, bufA[i], bufB[i])
			}
		}
	}
	if got := FindIntoAt(bufB, nil, 1, 0, 0); len(got) != 0 {
		t.Fatalf("empty input: got %v", got)
	}
}
