package detect

import (
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/trace"
)

// TestDebugSyncSurface is a diagnostic for the Q/Q* search; it prints the
// search surface for a low-CFO packet. Run with -run TestDebugSyncSurface -v.
func TestDebugSyncSurface(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic only")
	}
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(90))
	b := trace.NewBuilder(p, 1.2, 1, rng)
	payload := make([]uint8, 14)
	rng.Read(payload)
	cfoHz := 137.0
	if err := b.AddPacket(0, 0, payload, 25000, 15, cfoHz, nil); err != nil {
		t.Fatal(err)
	}
	tr, recs := b.Build()
	d := NewDetector(p)
	cands := d.scanPreambles(tr.Antennas)
	t.Logf("true start %.2f cfo %.4f cycles", recs[0].StartSample, cfoHz*p.SymbolDuration())
	t.Logf("candidates: %+v", cands)
	for _, c := range cands {
		pkt, reject := d.refine(tr.Antennas, c, d.newRefineScratch())
		t.Logf("refined: %+v reject=%q", pkt, reject)
	}
	// Examine the Q surface around the true parameters.
	start := recs[0].StartSample
	cfo := cfoHz * p.SymbolDuration()
	for _, df := range []float64{-1, -0.5, 0, 0.28, 0.5, 1} {
		r := d.evalQ(tr.Antennas, start, cfo, 0, df, d.newRefineScratch())
		t.Logf("df=%+.2f: E=%.3e up=%d down=%d qstar=%.3e", df, r.energy, r.upBin, r.downBin, qStar(r, 0))
	}
	for _, dt := range []float64{-8, -4, 0, 4, 8} {
		r := d.evalQ(tr.Antennas, start, cfo, dt, 0, d.newRefineScratch())
		t.Logf("dt=%+.1f: E=%.3e up=%d down=%d qstar=%.3e", dt, r.energy, r.upBin, r.downBin, qStar(r, 0))
	}
}
