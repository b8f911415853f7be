package detect

import (
	"math"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/trace"
)

func buildTrace(t *testing.T, seed int64, p lora.Params, specs []pktSpec, noise bool) (*trace.Trace, []trace.TxRecord) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(p, 1.2, 1, rng)
	if !noise {
		b.NoisePower = 0
	}
	for i, s := range specs {
		payload := make([]uint8, 14)
		rng.Read(payload)
		if err := b.AddPacket(i, i, payload, s.start, s.snr, s.cfo, nil); err != nil {
			t.Fatal(err)
		}
	}
	tr, recs := b.Build()
	return tr, recs
}

type pktSpec struct {
	start, snr, cfo float64
}

func TestDetectSinglePacket(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, recs := buildTrace(t, 80, p, []pktSpec{{start: 31234.56, snr: 10, cfo: 2700}}, true)
	d := NewDetector(p)
	pkts := d.Detect(tr.Antennas)
	if len(pkts) != 1 {
		t.Fatalf("detected %d packets, want 1", len(pkts))
	}
	got := pkts[0]
	rec := recs[0]
	if math.Abs(got.Start-rec.StartSample) > 1.0 {
		t.Errorf("start %g, want %g (err %.2f samples)", got.Start, rec.StartSample, got.Start-rec.StartSample)
	}
	wantCFO := rec.CFOHz * p.SymbolDuration()
	if math.Abs(got.CFOCycles-wantCFO) > 0.1 {
		t.Errorf("CFO %g cycles, want %g", got.CFOCycles, wantCFO)
	}
}

func TestDetectSinglePacketSF10(t *testing.T) {
	p := lora.MustParams(10, 2, 125e3, 8)
	rng := rand.New(rand.NewSource(81))
	b := trace.NewBuilder(p, 3.0, 1, rng)
	payload := make([]uint8, 14)
	if err := b.AddPacket(0, 0, payload, 50000.3, 5, -4000, nil); err != nil {
		t.Fatal(err)
	}
	tr, recs := b.Build()
	d := NewDetector(p)
	pkts := d.Detect(tr.Antennas)
	if len(pkts) != 1 {
		t.Fatalf("detected %d packets, want 1", len(pkts))
	}
	if math.Abs(pkts[0].Start-recs[0].StartSample) > 1.5 {
		t.Errorf("start error %.2f samples", pkts[0].Start-recs[0].StartSample)
	}
	wantCFO := recs[0].CFOHz * p.SymbolDuration()
	if math.Abs(pkts[0].CFOCycles-wantCFO) > 0.1 {
		t.Errorf("CFO %g, want %g", pkts[0].CFOCycles, wantCFO)
	}
}

func TestDetectLowSNR(t *testing.T) {
	// LoRa operates below the noise floor; SF8 has 24 dB of processing
	// gain, so -5 dB per-sample SNR must still detect.
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, recs := buildTrace(t, 82, p, []pktSpec{{start: 40000, snr: -5, cfo: 1000}}, true)
	d := NewDetector(p)
	pkts := d.Detect(tr.Antennas)
	if len(pkts) != 1 {
		t.Fatalf("detected %d packets at -5 dB", len(pkts))
	}
	if math.Abs(pkts[0].Start-recs[0].StartSample) > 2.5 {
		t.Errorf("start error %.2f samples at -5 dB", pkts[0].Start-recs[0].StartSample)
	}
}

func TestDetectTwoCollidingPackets(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	specs := []pktSpec{
		{start: 30000.2, snr: 12, cfo: 2000},
		{start: 30000.2 + 7.3*sym, snr: 9, cfo: -3100}, // overlaps the first
	}
	tr, recs := buildTrace(t, 83, p, specs, true)
	if !recs[0].Overlaps(recs[1]) {
		t.Fatal("test setup: packets do not overlap")
	}
	d := NewDetector(p)
	pkts := d.Detect(tr.Antennas)
	if len(pkts) != 2 {
		t.Fatalf("detected %d packets, want 2", len(pkts))
	}
	for i, rec := range recs {
		if math.Abs(pkts[i].Start-rec.StartSample) > 2 {
			t.Errorf("packet %d start error %.2f", i, pkts[i].Start-rec.StartSample)
		}
		wantCFO := rec.CFOHz * p.SymbolDuration()
		if math.Abs(pkts[i].CFOCycles-wantCFO) > 0.15 {
			t.Errorf("packet %d CFO %g, want %g", i, pkts[i].CFOCycles, wantCFO)
		}
	}
}

func TestDetectNoFalsePositivesOnNoise(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(84))
	b := trace.NewBuilder(p, 1.0, 1, rng)
	tr, _ := b.Build() // noise only
	d := NewDetector(p)
	if pkts := d.Detect(tr.Antennas); len(pkts) != 0 {
		t.Errorf("detected %d packets in pure noise", len(pkts))
	}
}

func TestDetectEmptyInput(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	d := NewDetector(p)
	if pkts := d.Detect(nil); pkts != nil {
		t.Error("nil input should give nil")
	}
	if pkts := d.Detect([][]complex128{{}}); pkts != nil {
		t.Error("empty antenna should give nil")
	}
}

func TestFractionalTimingAccuracy(t *testing.T) {
	// The step-4 search should recover sub-sample timing: with U=8 the
	// resolution is 1/8 of an rx sample.
	p := lora.MustParams(8, 4, 125e3, 8)
	for _, frac := range []float64{0.125, 0.5, 0.875} {
		start := 20000 + frac
		tr, _ := buildTrace(t, 85+int64(frac*1000), p, []pktSpec{{start: start, snr: 15, cfo: 1234}}, true)
		d := NewDetector(p)
		pkts := d.Detect(tr.Antennas)
		if len(pkts) != 1 {
			t.Fatalf("frac %.3f: %d packets", frac, len(pkts))
		}
		if err := math.Abs(pkts[0].Start - start); err > 0.5 {
			t.Errorf("frac %.3f: timing error %.3f samples", frac, err)
		}
	}
}

func TestFractionalCFOAccuracy(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	for _, cfoHz := range []float64{137, -2411, 4600} {
		tr, _ := buildTrace(t, 90, p, []pktSpec{{start: 25000, snr: 15, cfo: cfoHz}}, true)
		d := NewDetector(p)
		pkts := d.Detect(tr.Antennas)
		if len(pkts) != 1 {
			t.Fatalf("cfo %g: %d packets", cfoHz, len(pkts))
		}
		want := cfoHz * p.SymbolDuration()
		if err := math.Abs(pkts[0].CFOCycles - want); err > 1.0/16 {
			t.Errorf("cfo %g Hz: error %.4f cycles", cfoHz, err)
		}
	}
}

func TestResolveAmbiguity(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	d := NewDetector(p)
	// A CFO of 3 bins and delta 40: x1 = 43, x2 = -37 → mod 256 = 219.
	cfo, delta := d.resolveAmbiguity((43+219)/2.0, (43-219)/2.0)
	if math.Abs(cfo-3) > 1e-9 {
		t.Errorf("cfo %g, want 3", cfo)
	}
	dd := math.Mod(delta+256, 256)
	if math.Abs(dd-40) > 1e-9 {
		t.Errorf("delta %g, want 40", dd)
	}
}

func BenchmarkDetectOnePacketTrace(b *testing.B) {
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(91))
	bl := trace.NewBuilder(p, 0.6, 1, rng)
	payload := make([]uint8, 14)
	if err := bl.AddPacket(0, 0, payload, 10000, 10, 2000, nil); err != nil {
		b.Fatal(err)
	}
	tr, _ := bl.Build()
	d := NewDetector(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pkts := d.Detect(tr.Antennas); len(pkts) != 1 {
			b.Fatalf("%d packets", len(pkts))
		}
	}
}

// TestDetectCountsQSearchFallbacks checks QSearchFallbacks per Detect call:
// a packet at the head of the trace puts its searches' first anchors before
// sample 0, so they fall back; the next call, on a packet mid-trace, starts
// the count again from zero.
func TestDetectCountsQSearchFallbacks(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	d := NewDetector(p)
	for _, c := range []struct {
		start     float64
		fallbacks bool
	}{{1.3, true}, {31234.56, false}} {
		tr, _ := buildTrace(t, 80, p, []pktSpec{{start: c.start, snr: 10, cfo: 2700}}, true)
		if pkts := d.Detect(tr.Antennas); len(pkts) != 1 {
			t.Fatalf("start %v: detected %d packets, want 1", c.start, len(pkts))
		}
		if got := d.QSearchFallbacks > 0; got != c.fallbacks {
			t.Errorf("start %v: %d Q-search fallbacks, want any: %v", c.start, d.QSearchFallbacks, c.fallbacks)
		}
	}
}

// TestRefineStartsOnHalfSampleGrid checks that refine hands the §7 search
// starts on the half-sample grid, the class the search's tight contract with
// its oracle covers, at OSF 1, where the coarse timing's half chip is half a
// sample. There the search's δt is a multiple of half a sample too, so each
// packet start must be one.
func TestRefineStartsOnHalfSampleGrid(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 1)
	specs := []pktSpec{{start: 4000.3, snr: 10, cfo: 2700}, {start: 40000.8, snr: 12, cfo: -1500}, {start: 80000.55, snr: 8, cfo: 900}}
	tr, _ := buildTrace(t, 81, p, specs, true)
	pkts := NewDetector(p).Detect(tr.Antennas)
	if len(pkts) < len(specs) {
		t.Fatalf("detected %d packets, want at least %d", len(pkts), len(specs))
	}
	for _, pkt := range pkts {
		if !onHalfGrid(pkt.Start) {
			t.Errorf("packet start %v is off the half-sample grid", pkt.Start)
		}
	}
}
