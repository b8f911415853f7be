package detect

import (
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/trace"
)

func TestDebugMissedCollider(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic only")
	}
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	rng := rand.New(rand.NewSource(210))
	b := trace.NewBuilder(p, 1.2, 1, rng)
	pay := make([]uint8, 14)
	b.AddPacket(0, 0, pay, 20000.4, 12, 2100, nil)
	b.AddPacket(1, 1, pay, 20000.4+11.5*sym, 7, -3300, nil)
	tr, recs := b.Build()
	d := NewDetector(p)
	cands := d.scanPreambles(tr.Antennas)
	for _, c := range cands {
		t.Logf("cand: window %d bin %d h %.3e", c.window, c.bin, c.height)
		pkt, reject := d.refine(tr.Antennas, c, d.newRefineScratch())
		t.Logf("  refine: %+v reject=%q", pkt, reject)
	}
	for _, r := range recs {
		t.Logf("true: start %.1f (window %.2f) cfo %.4f", r.StartSample, r.StartSample/sym, r.CFOHz*p.SymbolDuration())
	}
}

func TestDebugRefineSteps(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic only")
	}
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	rng := rand.New(rand.NewSource(210))
	b := trace.NewBuilder(p, 1.2, 1, rng)
	pay := make([]uint8, 14)
	b.AddPacket(0, 0, pay, 20000.4, 12, 2100, nil)
	b.AddPacket(1, 1, pay, 20000.4+11.5*sym, 7, -3300, nil)
	tr, _ := b.Build()
	d := NewDetector(p)
	n := p.N()
	c := candidate{window: 25, bin: 181}
	// replicate refine's down scan
	for g := c.window + 1; g <= c.window+8; g++ {
		start := float64(g * p.SymbolSamples())
		acc := make([]float64, n)
		d.demod.SumSignalVectorInto(acc, make([]float64, n), make([]complex128, n), tr.Antennas, start, 0, 0, true)
		bi := 0
		for i, v := range acc {
			if v > acc[bi] {
				bi = i
			}
		}
		t.Logf("down window %d: bin %d h %.3e", g, bi, acc[bi])
	}
}
