package baseline

import (
	"bytes"
	"math/rand"
	"testing"

	"tnb/internal/detect"
	"tnb/internal/lora"
	"tnb/internal/trace"
)

type txSpec struct {
	start, snr, cfo float64
	payload         []uint8
}

func makeTrace(t *testing.T, seed int64, p lora.Params, dur float64, specs []txSpec) (*trace.Trace, []trace.TxRecord) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(p, dur, 1, rng)
	for i, s := range specs {
		if err := b.AddPacket(i, i, s.payload, s.start, s.snr, s.cfo, nil); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func payloadOf(i int) []uint8 {
	p := make([]uint8, 14)
	for j := range p {
		p[j] = uint8(i*31 + j)
	}
	return p
}

func countDecoded(decoded []Decoded, recs []trace.TxRecord) int {
	n := 0
	for _, rec := range recs {
		for _, d := range decoded {
			if bytes.Equal(d.Payload, rec.Payload) {
				n++
				break
			}
		}
	}
	return n
}

func TestLoRaPHYSinglePacket(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, recs := makeTrace(t, 300, p, 1.0, []txSpec{
		{start: 20000.4, snr: 8, cfo: 1500, payload: payloadOf(1)},
	})
	l := NewLoRaPHY(Config{Params: p})
	if got := countDecoded(l.Decode(tr), recs); got != 1 {
		t.Errorf("LoRaPHY decoded %d/1 clean packets", got)
	}
}

func TestLoRaPHYFailsOnHeavyCollision(t *testing.T) {
	// Two equal-power packets heavily overlapped: the standard decoder
	// should lose at least one (its per-symbol argmax mixes them).
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, recs := makeTrace(t, 301, p, 1.2, []txSpec{
		{start: 20000.4, snr: 10, cfo: 1500, payload: payloadOf(1)},
		{start: 20000.4 + 2.5*sym, snr: 10, cfo: -2500, payload: payloadOf(2)},
	})
	l := NewLoRaPHY(Config{Params: p})
	if got := countDecoded(l.Decode(tr), recs); got >= 2 {
		t.Errorf("LoRaPHY decoded %d/2 heavily collided equal-power packets; expected failure", got)
	}
}

func TestCICSinglePacket(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, recs := makeTrace(t, 302, p, 1.0, []txSpec{
		{start: 20000.4, snr: 8, cfo: 1500, payload: payloadOf(1)},
	})
	c := NewCIC(Config{Params: p})
	if got := countDecoded(c.Decode(tr), recs); got != 1 {
		t.Errorf("CIC decoded %d/1 clean packets", got)
	}
}

func TestCICResolvesCollision(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, recs := makeTrace(t, 303, p, 1.2, []txSpec{
		{start: 20000.4, snr: 12, cfo: 1500, payload: payloadOf(1)},
		{start: 20000.4 + 11.4*sym, snr: 9, cfo: -2500, payload: payloadOf(2)},
	})
	c := NewCIC(Config{Params: p})
	if got := countDecoded(c.Decode(tr), recs); got < 1 {
		t.Errorf("CIC decoded %d/2 collided packets", got)
	}
}

func TestCICPlusBECAtLeastAsGood(t *testing.T) {
	// CIC+ (with BEC) must decode at least as many packets as CIC across
	// a few seeds (paper §8.5: "BEC can be combined with CIC and
	// AlignTrack* and always improve the performance").
	p := lora.MustParams(8, 3, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tot, totBEC := 0, 0
	for seed := int64(0); seed < 3; seed++ {
		tr, recs := makeTrace(t, 310+seed, p, 1.4, []txSpec{
			{start: 20000.4, snr: 8, cfo: 1500, payload: payloadOf(1)},
			{start: 20000.4 + (9.4+2*float64(seed))*sym, snr: 4, cfo: -2500, payload: payloadOf(2)},
		})
		tot += countDecoded(NewCIC(Config{Params: p, Seed: seed}).Decode(tr), recs)
		totBEC += countDecoded(NewCIC(Config{Params: p, UseBEC: true, Seed: seed}).Decode(tr), recs)
	}
	if totBEC < tot {
		t.Errorf("CIC+ decoded %d vs CIC %d", totBEC, tot)
	}
}

func TestCICSubWindowCuts(t *testing.T) {
	// With one interferer offset by half a symbol, selectBin must still
	// recover the true bins of a strong target.
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, recs := makeTrace(t, 304, p, 1.2, []txSpec{
		{start: 20000, snr: 12, cfo: 0, payload: payloadOf(1)},
		{start: 20000 + 9.5*sym, snr: 12, cfo: 0, payload: payloadOf(2)},
	})
	c := NewCIC(Config{Params: p})
	pkts := c.detector.Detect(tr.Antennas)
	if len(pkts) != 2 {
		t.Fatalf("detected %d packets", len(pkts))
	}
	rec := recs[0]
	dataStart := pkts[0].Start + (lora.PreambleUpchirps+lora.SyncSymbols+2.25)*sym
	sc := newCICScratch(p.N())
	errs := 0
	for k := 0; k < len(rec.Shifts); k++ {
		bin := c.selectBin(sc, tr.Antennas, pkts[0], pkts[1:], k, dataStart+float64(k)*sym)
		if bin != rec.Shifts[k] {
			errs++
		}
	}
	if errs > len(rec.Shifts)/8 {
		t.Errorf("CIC selectBin: %d/%d errors", errs, len(rec.Shifts))
	}
}

// TestCICShortSubWindowsUseFullWindow cuts every symbol of a clean packet
// into ten sub-windows, all shorter than MinSubWindowChips, plus a cut at
// the packet's own start, which is skipped: with no sub-window left,
// selectBin must fall back to the full-window spectrum and still find the
// true bins.
func TestCICShortSubWindowsUseFullWindow(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, recs := makeTrace(t, 305, p, 0.8, []txSpec{
		{start: 20000, snr: 12, cfo: 0, payload: payloadOf(1)},
	})
	c := NewCIC(Config{Params: p})
	pkts := c.detector.Detect(tr.Antennas)
	if len(pkts) != 1 {
		t.Fatalf("detected %d packets", len(pkts))
	}
	others := []detect.Packet{pkts[0]}
	for j := 0; j < 10; j++ {
		others = append(others, detect.Packet{Start: pkts[0].Start + (float64(j)+0.5)*sym/10})
	}
	dataStart := pkts[0].Start + (lora.PreambleUpchirps+lora.SyncSymbols+2.25)*sym
	sc := newCICScratch(p.N())
	errs := 0
	for k, want := range recs[0].Shifts {
		if c.selectBin(sc, tr.Antennas, pkts[0], others, k, dataStart+float64(k)*sym) != want {
			errs++
		}
	}
	if errs > 1 {
		t.Errorf("%d/%d symbol errors", errs, len(recs[0].Shifts))
	}
}

// TestCICSelectBinAllocs pins CIC's per-symbol allocation count: with the
// packet's scratch reused, a symbol allocates nothing, whether an
// interferer cuts its window or not.
func TestCICSelectBinAllocs(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, _ := makeTrace(t, 304, p, 1.2, []txSpec{
		{start: 20000, snr: 12, cfo: 0, payload: payloadOf(1)},
		{start: 20000 + 9.5*sym, snr: 12, cfo: 0, payload: payloadOf(2)},
	})
	c := NewCIC(Config{Params: p})
	pkts := c.detector.Detect(tr.Antennas)
	if len(pkts) != 2 {
		t.Fatalf("detected %d packets", len(pkts))
	}
	dataStart := pkts[0].Start + (lora.PreambleUpchirps+lora.SyncSymbols+2.25)*sym
	sc := newCICScratch(p.N())
	for name, others := range map[string][]detect.Packet{"one interferer": pkts[1:], "no interferer": nil} {
		k := 0
		allocs := testing.AllocsPerRun(20, func() {
			c.selectBin(sc, tr.Antennas, pkts[0], others, k, dataStart+float64(k)*sym)
			k++
		})
		if allocs != 0 {
			t.Errorf("%s: selectBin allocates %v times per symbol, want 0", name, allocs)
		}
	}
}

func TestCircDist(t *testing.T) {
	if circDist(0, 255, 256) != 1 || circDist(5, 5, 256) != 0 || circDist(0, 128, 256) != 128 {
		t.Error("circDist broken")
	}
}
