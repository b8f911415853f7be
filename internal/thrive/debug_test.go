package thrive

import (
	"math"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/peaks"
)

func TestDebugThreePacket(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic only")
	}
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
		for j := range rec.Shifts {
			if states[i].Assigned[j] != rec.Shifts[j] {
				y := states[i].Calc.SigVec(j)
				ps := peaks.FindInto(nil, y, 0, 8)
				trueH := y[rec.Shifts[j]]
				t.Logf("pkt %d sym %d: got %d want %d (trueY=%.3e) peaks=%v",
					i, j, states[i].Assigned[j], rec.Shifts[j], trueH, ps)
				// Which other packets overlap this symbol?
				st := states[i].Calc.SymbolStart(j)
				for k, o := range states {
					if k == i {
						continue
					}
					rel := (st - o.Calc.SymbolStart(0)) / sym
					t.Logf("   pkt %d overlap at sym %.2f alpha=%.2f (mine %.2f)",
						k, rel, o.Calc.Alpha(), states[i].Calc.Alpha())
				}

			}
		}
	}
	_ = math.Pi
}
