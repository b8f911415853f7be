package thrive

import (
	"math"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/peaks"
	"tnb/internal/trace"
)

// buildScenario renders packets into a trace and returns packet states with
// the true (oracle) detection parameters, isolating Thrive from detection.
func buildScenario(t *testing.T, seed int64, p lora.Params, specs []spec) ([]*PacketState, []trace.TxRecord, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(p, 1.8, 1, rng)
	for i, s := range specs {
		payload := make([]uint8, 14)
		rng.Read(payload)
		if err := b.AddPacket(i, i, payload, s.start, s.snr, s.cfo, nil); err != nil {
			t.Fatal(err)
		}
	}
	tr, recs := b.Build()
	d := lora.NewDemodulator(p)
	var states []*PacketState
	for i, rec := range recs {
		calc := peaks.NewCalculator(d, tr.Antennas, rec.StartSample,
			rec.CFOHz*p.SymbolDuration(), len(rec.Shifts))
		states = append(states, NewPacketState(i, calc))
	}
	return states, recs, tr.Len()
}

type spec struct {
	start, snr, cfo float64
}

func symbolErrors(got []int, want []int) int {
	e := 0
	for i := range want {
		if got[i] != want[i] {
			e++
		}
	}
	return e
}

func TestSinglePacketAssignment(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	states, recs, tl := buildScenario(t, 100, p, []spec{{start: 20000.3, snr: 10, cfo: 1500}})
	e := NewEngine(p, DefaultConfig())
	e.Run(states, tl)
	if errs := symbolErrors(states[0].Assigned, recs[0].Shifts); errs != 0 {
		t.Errorf("%d symbol errors on a collision-free packet", errs)
	}
}

func TestTwoPacketCollision(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	states, recs, tl := buildScenario(t, 101, p, []spec{
		{start: 20000.3, snr: 12, cfo: 1500},
		{start: 20000.3 + 10.4*sym, snr: 8, cfo: -2600},
	})
	e := NewEngine(p, DefaultConfig())
	e.Run(states, tl)
	for i, rec := range recs {
		errs := symbolErrors(states[i].Assigned, rec.Shifts)
		if errs > 2 {
			t.Errorf("packet %d: %d/%d symbol errors", i, errs, len(rec.Shifts))
		}
	}
}

func TestThreePacketCollision(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	states, recs, tl := buildScenario(t, 102, p, []spec{
		{start: 20000.3, snr: 15, cfo: 1500},
		{start: 20000.3 + 9.4*sym, snr: 10, cfo: -2600},
		{start: 20000.3 + 20.7*sym, snr: 5, cfo: 3700},
	})
	e := NewEngine(p, DefaultConfig())
	e.Run(states, tl)
	for i, rec := range recs {
		errs := symbolErrors(states[i].Assigned, rec.Shifts)
		// With BEC downstream, a handful of symbol errors is tolerable;
		// the assignment itself should get the vast majority right.
		if errs > len(rec.Shifts)/6 {
			t.Errorf("packet %d (snr %.0f): %d/%d symbol errors",
				i, rec.SNRdB, errs, len(rec.Shifts))
		}
	}
}

func TestSiblingOnlyStillWorksOnEqualPower(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	states, recs, tl := buildScenario(t, 103, p, []spec{
		{start: 20000.3, snr: 10, cfo: 2100},
		{start: 20000.3 + 12.6*sym, snr: 10, cfo: -1400},
	})
	cfg := DefaultConfig()
	cfg.Policy = PolicySibling
	e := NewEngine(p, cfg)
	e.Run(states, tl)
	for i, rec := range recs {
		errs := symbolErrors(states[i].Assigned, rec.Shifts)
		if errs > len(rec.Shifts)/5 {
			t.Errorf("packet %d: %d/%d errors with sibling-only", i, errs, len(rec.Shifts))
		}
	}
}

func TestHistoryHelpsWithPowerGap(t *testing.T) {
	// A strong and a weak packet: history should keep the weak packet
	// from grabbing the strong packet's leftovers. Thrive must do at
	// least as well as Sibling-only on the weak packet.
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	specs := []spec{
		{start: 20000.3, snr: 20, cfo: 2100},
		{start: 20000.3 + 11.5*sym, snr: 4, cfo: -1400},
	}
	run := func(policy Policy) int {
		states, recs, tl := buildScenario(t, 104, p, specs)
		cfg := DefaultConfig()
		cfg.Policy = policy
		NewEngine(p, cfg).Run(states, tl)
		return symbolErrors(states[1].Assigned, recs[1].Shifts)
	}
	thriveErrs := run(PolicyThrive)
	siblingErrs := run(PolicySibling)
	if thriveErrs > siblingErrs+2 {
		t.Errorf("history hurt: thrive %d errs vs sibling %d", thriveErrs, siblingErrs)
	}
}

func TestKnownPacketMasking(t *testing.T) {
	// Marking the strong packet as Known (decoded) must not degrade the
	// weak packet's assignment.
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	specs := []spec{
		{start: 20000.3, snr: 18, cfo: 2100},
		{start: 20000.3 + 8.5*sym, snr: 3, cfo: -3400},
	}
	states, recs, tl := buildScenario(t, 105, p, specs)
	states[0].Known = true
	states[0].KnownShifts = recs[0].Shifts
	e := NewEngine(p, DefaultConfig())
	e.Run(states, tl)
	if got := states[0].Assigned[0]; got != -1 {
		t.Error("known packet should not be assigned")
	}
	errs := symbolErrors(states[1].Assigned, recs[1].Shifts)
	if errs > len(recs[1].Shifts)/6 {
		t.Errorf("weak packet: %d/%d errors with strong packet masked", errs, len(recs[1].Shifts))
	}
}

func TestSecondPassWithPriorHeights(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	specs := []spec{
		{start: 20000.3, snr: 12, cfo: 2100},
		{start: 20000.3 + 9.5*sym, snr: 7, cfo: -3400},
	}
	states, recs, tl := buildScenario(t, 106, p, specs)
	e := NewEngine(p, DefaultConfig())
	e.Run(states, tl)
	firstErrs := symbolErrors(states[1].Assigned, recs[1].Shifts)

	// Second pass: packet 0 known, packet 1 retried with prior heights.
	states2, _, _ := buildScenario(t, 106, p, specs)
	states2[0].Known = true
	states2[0].KnownShifts = recs[0].Shifts
	states2[1].PriorHeights = append([]float64(nil), states[1].Heights...)
	e.Run(states2, tl)
	secondErrs := symbolErrors(states2[1].Assigned, recs[1].Shifts)
	if secondErrs > firstErrs+2 {
		t.Errorf("second pass worse: %d vs %d errors", secondErrs, firstErrs)
	}
}

func TestAlignTrackPolicyRuns(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	states, recs, tl := buildScenario(t, 107, p, []spec{
		{start: 20000.3, snr: 12, cfo: 1500},
		{start: 20000.3 + 10.4*sym, snr: 9, cfo: -2600},
	})
	cfg := DefaultConfig()
	cfg.Policy = PolicyAlignTrack
	e := NewEngine(p, cfg)
	e.Run(states, tl)
	for i, rec := range recs {
		errs := symbolErrors(states[i].Assigned, rec.Shifts)
		if errs > len(rec.Shifts)/4 {
			t.Errorf("AlignTrack* packet %d: %d/%d errors", i, errs, len(rec.Shifts))
		}
	}
}

func TestHistoryCostEquation2(t *testing.T) {
	e := NewEngine(lora.MustParams(8, 4, 125e3, 8), DefaultConfig())
	f := &historyFit{a: 100, d: 10} // U = 140, L = 60
	if c := e.historyCost(f, 100); c != 0 {
		t.Errorf("in-band cost %g", c)
	}
	if c := e.historyCost(f, 140); c != 0 {
		t.Errorf("at upper bound cost %g", c)
	}
	c := e.historyCost(f, 280) // η = 2U → (1 - 1/2)² · ω
	want := 0.1 * 0.25
	if math.Abs(c-want) > 1e-12 {
		t.Errorf("above-band cost %g, want %g", c, want)
	}
	c = e.historyCost(f, 30) // η = L/2 → (1 - 1/2)² · ω
	if math.Abs(c-want) > 1e-12 {
		t.Errorf("below-band cost %g, want %g", c, want)
	}
	// Degenerate: L clamped at 0 never divides by zero.
	f2 := &historyFit{a: 10, d: 10}
	if c := e.historyCost(f2, 0); c != 0 {
		t.Errorf("zero-η cost %g", c)
	}
}

func TestSymbolAtMapsUniquely(t *testing.T) {
	// Every data symbol must map to exactly one checking point.
	p := lora.MustParams(8, 4, 125e3, 8)
	states, _, tl := buildScenario(t, 108, p, []spec{{start: 23456.7, snr: 10, cfo: 900}})
	ps := states[0]
	sym := p.SymbolSamples()
	counts := make([]int, ps.Calc.NumData())
	for cp := 0; cp <= tl+sym; cp += sym {
		if idx := symbolAt(ps, float64(cp), sym); idx >= 0 {
			counts[idx]++
		}
	}
	for i, c := range counts {
		if c != 1 {
			t.Errorf("symbol %d visited %d times", i, c)
		}
	}
}

func BenchmarkTwoPacketAssignment(b *testing.B) {
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(109))
	bl := trace.NewBuilder(p, 1.5, 1, rng)
	payload := make([]uint8, 14)
	sym := float64(p.SymbolSamples())
	if err := bl.AddPacket(0, 0, payload, 20000, 12, 1500, nil); err != nil {
		b.Fatal(err)
	}
	if err := bl.AddPacket(1, 1, payload, 20000+10.4*sym, 8, -2600, nil); err != nil {
		b.Fatal(err)
	}
	tr, recs := bl.Build()
	d := lora.NewDemodulator(p)
	e := NewEngine(p, DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var states []*PacketState
		for j, rec := range recs {
			calc := peaks.NewCalculator(d, tr.Antennas, rec.StartSample,
				rec.CFOHz*p.SymbolDuration(), len(rec.Shifts))
			states = append(states, NewPacketState(j, calc))
		}
		e.Run(states, tr.Len())
	}
}

// TestModGuardsMatchMathMod checks modBins and circDist bit for bit against
// the unguarded math.Mod forms they replace, at ±n, ±0, the floats next to
// ±n, non-finite values and random bins and offsets.
func TestModGuardsMatchMathMod(t *testing.T) {
	oldCircDist := func(a, b float64, n int) float64 {
		d := math.Abs(math.Mod(a-b, float64(n)))
		if d > float64(n)/2 {
			d = float64(n) - d
		}
		return d
	}
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 128, 256, 4096} {
		fn := float64(n)
		xs := []float64{0, math.Copysign(0, -1), fn, -fn, 2 * fn, -2 * fn, fn / 2, -fn / 2,
			math.Nextafter(fn, 0), math.Nextafter(fn, math.Inf(1)),
			math.Nextafter(-fn, 0), math.Nextafter(-fn, math.Inf(-1)),
			math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, -1e-300}
		for i := 0; i < 2000; i++ {
			xs = append(xs, float64(rng.Intn(n))+(rng.Float64()-0.5)*4*fn)
		}
		for _, x := range xs {
			if got, want := modBins(x, n), math.Mod(x, fn); !same(got, want) {
				t.Errorf("modBins(%v, %d) = %v, math.Mod gives %v", x, n, got, want)
			}
			for _, b := range []float64{0, math.Copysign(0, -1), fn, -fn, x, float64(rng.Intn(n)) + rng.Float64()} {
				if got, want := circDist(x, b, n), oldCircDist(x, b, n); !same(got, want) {
					t.Errorf("circDist(%v, %v, %d) = %v, unguarded form gives %v", x, b, n, got, want)
				}
			}
		}
	}
}

// siblingHeightScan is siblingHeight as a scan of every located peak of
// os, the reference for the bin index.
func siblingHeightScan(s *symbol, bin float64, os *symbol, n int) float64 {
	pos := modBins(bin+os.pkt.Calc.Alpha()-s.pkt.Calc.Alpha(), n)
	if pos < 0 {
		pos += float64(n)
	}
	best := 0.0
	found := false
	for _, pk := range os.ps {
		if circDist(float64(pk.Bin), pos, n) <= 1.5 && pk.Height > best {
			best, found = pk.Height, true
		}
	}
	if found {
		return best
	}
	return os.pkt.Calc.ValueAt(os.idx, pos)
}

// TestSiblingHeightIndexMatchesScan holds siblingHeight's bin index to the
// scan of os.ps, bit for bit, at integer and fractional bins across the
// whole circle, with peaks at both ends of it, of zero, negative and NaN
// height, and after the symbol is reused with fewer peaks.
func TestSiblingHeightIndexMatchesScan(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	n := p.N()
	states, _, _ := buildScenario(t, 103, p, []spec{
		{start: 20000.3, snr: 12, cfo: 1500},
		{start: 20000.3 + 10.4*sym, snr: 8, cfo: -2600},
	})
	s := &symbol{pkt: states[0], idx: 3}
	os := &symbol{pkt: states[1], idx: 1}
	rng := rand.New(rand.NewSource(9))
	check := func(round int) {
		t.Helper()
		for k := -2; k <= n+2; k++ {
			for _, frac := range []float64{0, 0.25, 0.5, 0.75, 0.4999999999} {
				bin := float64(k) + frac
				got, want := siblingHeight(s, bin, os, n), siblingHeightScan(s, bin, os, n)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("round %d bin %v: index %v, scan %v", round, bin, got, want)
				}
			}
		}
	}
	for round := 0; round < 20; round++ {
		os.ps = os.ps[:0]
		used := map[int]bool{}
		for _, b := range append([]int{0, n - 1, 1}, rng.Perm(n)[:rng.Intn(12)]...) {
			if used[b] {
				continue
			}
			used[b] = true
			h := rng.ExpFloat64()
			switch rng.Intn(8) {
			case 0:
				h = 0
			case 1:
				h = -h
			case 2:
				h = math.NaN()
			}
			os.ps = append(os.ps, peaks.Peak{Bin: b, Height: h})
		}
		if round%2 == 1 {
			os.ps = os.ps[:len(os.ps)/2] // a reused symbol with fewer peaks
		}
		os.indexPeaks(n)
		check(round)
	}
}
