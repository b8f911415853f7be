package stagegraph

import (
	"testing"

	"tnb/internal/detect"
	"tnb/internal/lora"
	"tnb/internal/peaks"
	"tnb/internal/thrive"
)

func TestDebugPipeline(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("diagnostic only")
	}
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, recs := makeTrace(t, 210, p, 1.2, []txSpec{
		{start: 20000.4, snr: 12, cfo: 2100, payload: payloadOf(1)},
		{start: 20000.4 + 11.5*sym, snr: 7, cfo: -3300, payload: payloadOf(2)},
	})
	det := detect.NewDetector(p)
	pkts := det.Detect(tr.Antennas)
	t.Logf("detected %d packets", len(pkts))
	for i, pk := range pkts {
		t.Logf("pkt %d: start %.2f cfo %.4f", i, pk.Start, pk.CFOCycles)
	}
	for _, rec := range recs {
		t.Logf("true: start %.2f cfo %.4f len %d", rec.StartSample, rec.CFOHz*p.SymbolDuration(), len(rec.Shifts))
	}
	newCalc := func(pk detect.Packet) *peaks.Calculator {
		lay, err := lora.NewLayout(p, 48)
		maxSyms := 0
		if err == nil {
			maxSyms = lay.DataSymbols
		}
		dataStart := pk.Start + (lora.PreambleUpchirps+lora.SyncSymbols+
			float64(lora.DownchirpQuarters)/4)*float64(p.SymbolSamples())
		avail := int((float64(tr.Len()) - dataStart) / float64(p.SymbolSamples()))
		if avail < 0 {
			avail = 0
		}
		if maxSyms == 0 || avail < maxSyms {
			maxSyms = avail
		}
		return peaks.NewCalculator(det.Demodulator(), tr.Antennas, pk.Start, pk.CFOCycles, maxSyms)
	}
	states := make([]*thrive.PacketState, len(pkts))
	for i, pk := range pkts {
		states[i] = thrive.NewPacketState(i, newCalc(pk))
	}
	engine := thrive.NewEngine(p, thrive.Config{})
	engine.Run(states, tr.Len())
	for i, st := range states {
		if i >= len(recs) {
			break
		}
		rec := recs[i]
		errs, tot := 0, len(rec.Shifts)
		for j := range rec.Shifts {
			if j < len(st.Assigned) && st.Assigned[j] != rec.Shifts[j] {
				errs++
				if errs < 8 {
					y := st.Calc.SigVec(j)
					ps := peaks.FindInto(nil, y, 0, 6)
					t.Logf(" pkt %d sym %d: got %d want %d trueY=%.3e peaks=%v",
						i, j, st.Assigned[j], rec.Shifts[j], y[rec.Shifts[j]], ps)
				}
			}
		}
		t.Logf("pkt %d: %d/%d symbol errors (numData=%d)", i, errs, tot, st.Calc.NumData())
	}
}
