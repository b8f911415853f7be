package stagegraph

import (
	"bytes"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/thrive"
	"tnb/internal/trace"
)

func TestReceiverSinglePacket(t *testing.T) {
	for _, cr := range []int{1, 2, 3, 4} {
		p := lora.MustParams(8, cr, 125e3, 8)
		tr, recs := makeTrace(t, 200+int64(cr), p, 1.0, []txSpec{
			{start: 20000.4, snr: 8, cfo: 2100, payload: payloadOf(1)},
		})
		r := New(Config{Params: p, UseBEC: true})
		decoded := r.Decode(tr)
		if countDecoded(decoded, recs) != 1 {
			t.Errorf("CR%d: single packet not decoded", cr)
		}
	}
}

func TestReceiverTwoCollidedPackets(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, recs := makeTrace(t, 210, p, 1.2, []txSpec{
		{start: 20000.4, snr: 12, cfo: 2100, payload: payloadOf(1)},
		{start: 20000.4 + 11.5*sym, snr: 7, cfo: -3300, payload: payloadOf(2)},
	})
	r := New(Config{Params: p, UseBEC: true})
	decoded := r.Decode(tr)
	if got := countDecoded(decoded, recs); got != 2 {
		t.Errorf("decoded %d/2 collided packets", got)
	}
}

func TestReceiverThreeCollidedPackets(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, recs := makeTrace(t, 211, p, 1.5, []txSpec{
		{start: 20000.4, snr: 15, cfo: 2100, payload: payloadOf(1)},
		{start: 20000.4 + 9.3*sym, snr: 10, cfo: -3300, payload: payloadOf(2)},
		{start: 20000.4 + 21.8*sym, snr: 6, cfo: 800, payload: payloadOf(3)},
	})
	r := New(Config{Params: p, UseBEC: true})
	decoded := r.Decode(tr)
	if got := countDecoded(decoded, recs); got < 2 {
		t.Errorf("decoded %d/3 collided packets", got)
	}
}

func TestReceiverBECOutperformsDefault(t *testing.T) {
	// Across several collision scenarios, TnB (with BEC) must decode at
	// least as many packets as Thrive-only.
	p := lora.MustParams(8, 3, 125e3, 8)
	sym := float64(p.SymbolSamples())
	totalBEC, totalNoBEC := 0, 0
	for seed := int64(0); seed < 4; seed++ {
		tr, recs := makeTrace(t, 220+seed, p, 1.5, []txSpec{
			{start: 20000.4, snr: 9, cfo: 2100, payload: payloadOf(1)},
			{start: 20000.4 + (8.3+float64(seed))*sym, snr: 5, cfo: -3300, payload: payloadOf(2)},
			{start: 20000.4 + (19.6+2*float64(seed))*sym, snr: 3, cfo: 900, payload: payloadOf(3)},
		})
		rb := New(Config{Params: p, UseBEC: true, Seed: seed})
		totalBEC += countDecoded(rb.Decode(tr), recs)
		rn := New(Config{Params: p, UseBEC: false, Seed: seed})
		totalNoBEC += countDecoded(rn.Decode(tr), recs)
	}
	if totalBEC < totalNoBEC {
		t.Errorf("BEC decoded %d vs %d without", totalBEC, totalNoBEC)
	}
	if totalBEC == 0 {
		t.Error("BEC decoded nothing across all scenarios")
	}
}

func TestReceiverSNREstimate(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	for _, snr := range []float64{0, 10, 20} {
		tr, _ := makeTrace(t, 230, p, 1.0, []txSpec{
			{start: 20000, snr: snr, cfo: 1000, payload: payloadOf(1)},
		})
		r := New(Config{Params: p, UseBEC: true})
		decoded := r.Decode(tr)
		if len(decoded) != 1 {
			t.Fatalf("snr %g: %d decoded", snr, len(decoded))
		}
		if est := decoded[0].SNRdB; est < snr-4 || est > snr+4 {
			t.Errorf("snr %g: estimate %.1f dB", snr, est)
		}
	}
}

func TestReceiverSecondPassRescues(t *testing.T) {
	// A strong and a weak packet heavily overlapped: the weak one often
	// needs the second pass (strong peaks masked).
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	rescuedByPass2 := false
	for seed := int64(0); seed < 6 && !rescuedByPass2; seed++ {
		tr, recs := makeTrace(t, 240+seed, p, 1.3, []txSpec{
			{start: 20000.4, snr: 18, cfo: 2100, payload: payloadOf(1)},
			{start: 20000.4 + (6.5+float64(seed))*sym, snr: 0, cfo: -3300, payload: payloadOf(2)},
		})
		r := New(Config{Params: p, UseBEC: true, Seed: seed})
		decoded := r.Decode(tr)
		for _, d := range decoded {
			if d.Pass == 2 && bytes.Equal(d.Payload, recs[1].Payload) {
				rescuedByPass2 = true
			}
		}
	}
	// The second pass existing and producing *some* rescue across the
	// scenarios is the point; it is not guaranteed per-seed.
	t.Logf("second-pass rescue observed: %v", rescuedByPass2)
}

func TestReceiverPolicies(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	for _, pol := range []thrive.Policy{thrive.PolicyThrive, thrive.PolicySibling, thrive.PolicyAlignTrack} {
		tr, recs := makeTrace(t, 250, p, 1.2, []txSpec{
			{start: 20000.4, snr: 12, cfo: 2100, payload: payloadOf(1)},
			{start: 20000.4 + 12.5*sym, snr: 9, cfo: -3300, payload: payloadOf(2)},
		})
		r := New(Config{Params: p, Policy: pol, UseBEC: true})
		decoded := r.Decode(tr)
		if got := countDecoded(decoded, recs); got < 1 {
			t.Errorf("policy %d: decoded %d/2", pol, got)
		}
	}
}

func TestReceiverEmptyTrace(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	r := New(Config{Params: p, UseBEC: true})
	rng := rand.New(rand.NewSource(260))
	b := trace.NewBuilder(p, 0.5, 1, rng)
	tr, _ := b.Build()
	if decoded := r.Decode(tr); len(decoded) != 0 {
		t.Errorf("decoded %d packets from noise", len(decoded))
	}
}

func TestReceiverSF10(t *testing.T) {
	p := lora.MustParams(10, 2, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, recs := makeTrace(t, 270, p, 4.0, []txSpec{
		{start: 50000.4, snr: 6, cfo: 2100, payload: payloadOf(1)},
		{start: 50000.4 + 10.5*sym, snr: 2, cfo: -3300, payload: payloadOf(2)},
	})
	r := New(Config{Params: p, UseBEC: true})
	decoded := r.Decode(tr)
	if got := countDecoded(decoded, recs); got < 1 {
		t.Errorf("SF10: decoded %d/2", got)
	}
}
