package baseline

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/trace"
)

func TestMLoRaSinglePacket(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, recs := makeTrace(t, 700, p, 0.8, []txSpec{
		{start: 20000.4, snr: 10, cfo: 1500, payload: payloadOf(1)},
	})
	m := NewMLoRa(Config{Params: p})
	if got := countDecoded(m.Decode(tr), recs); got != 1 {
		t.Errorf("mLoRa decoded %d/1", got)
	}
}

func TestMLoRaSICRescuesWeakPacket(t *testing.T) {
	// A strong and a weak packet heavily overlapped: after subtracting
	// the strong one, the weak one becomes collision-free.
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, recs := makeTrace(t, 701, p, 1.2, []txSpec{
		{start: 20000.4, snr: 16, cfo: 2100, payload: payloadOf(1)},
		{start: 20000.4 + 7.5*sym, snr: 6, cfo: -2900, payload: payloadOf(2)},
	})
	m := NewMLoRa(Config{Params: p})
	decoded := m.Decode(tr)
	if got := countDecoded(decoded, recs); got != 2 {
		t.Errorf("mLoRa SIC decoded %d/2", got)
	}
}

func TestMLoRaSubtractionDepth(t *testing.T) {
	// Subtracting a cleanly decoded packet must remove the bulk of its
	// energy from the residual.
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(702))
	b := trace.NewBuilder(p, 0.8, 1, rng)
	b.NoisePower = 0.01 // nearly noiseless to measure cancellation depth
	payload := payloadOf(3)
	if err := b.AddPacket(0, 0, payload, 20000.42, 20, 1800, nil); err != nil {
		t.Fatal(err)
	}
	tr, recs := b.Build()
	before := power(tr.Antennas[0][int(recs[0].StartSample)+100 : int(recs[0].StartSample)+recs[0].NumSamples-100])

	m := NewMLoRa(Config{Params: p})
	residual := [][]complex128{append([]complex128(nil), tr.Antennas[0]...)}
	pkts := m.detector.Detect(residual)
	if len(pkts) != 1 {
		t.Fatalf("detected %d packets", len(pkts))
	}
	shifts := demodAll(m.demod, residual, pkts[0], maxSymbols(m.cfg, residual, pkts[0]), nil)
	dec, ok := finish(m.cfg, m.rng, shifts, pkts[0])
	if !ok || !bytes.Equal(dec.Payload, payload) {
		t.Fatal("clean decode failed")
	}
	m.subtract(residual, pkts[0], dec)
	after := power(residual[0][int(recs[0].StartSample)+100 : int(recs[0].StartSample)+recs[0].NumSamples-100])
	if after > before/20 {
		t.Errorf("cancellation depth too shallow: %.4g -> %.4g (%.1f dB)",
			before, after, 10*math.Log10(after/before))
	}
}

func TestMLoRaFailsWhenEqualPowerFullyOverlapped(t *testing.T) {
	// SIC needs a power gap or collision-free regions; two equal-power
	// fully synchronized packets defeat it (mLoRa's documented limit).
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, recs := makeTrace(t, 703, p, 1.0, []txSpec{
		{start: 20000, snr: 10, cfo: 2100, payload: payloadOf(1)},
		{start: 20100, snr: 10, cfo: -2900, payload: payloadOf(2)},
	})
	m := NewMLoRa(Config{Params: p})
	got := countDecoded(m.Decode(tr), recs)
	if got > 1 {
		t.Logf("mLoRa decoded %d/2 on near-synchronized equal power (lucky)", got)
	}
}

// power returns the mean of |x[i]|².
func power(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e / float64(len(x))
}
