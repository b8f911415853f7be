package stagegraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/trace"
)

func TestReceiverLDROEndToEnd(t *testing.T) {
	// SF 11 at 125 kHz runs with the low-data-rate optimization: the full
	// pipeline (detection, Thrive, BEC) must decode through the
	// reduced-rate payload symbols.
	p := lora.MustParams(11, 4, 125e3, 4) // OSF 4 keeps the trace small
	rng := rand.New(rand.NewSource(700))
	b := trace.NewBuilder(p, 5.0, 1, rng)
	payload := payloadOf(3)
	if err := b.AddPacket(0, 0, payload, 100000.5, 8, 2000, nil); err != nil {
		t.Fatal(err)
	}
	tr, _ := b.Build()
	r := New(Config{Params: p, UseBEC: true})
	decoded := r.Decode(tr)
	found := false
	for _, d := range decoded {
		if bytes.Equal(d.Payload, payload) {
			found = true
		}
	}
	if !found {
		t.Errorf("LDRO SF11 packet not decoded (%d decodes)", len(decoded))
	}
}

// TestSFRoundTripIQ16 decodes a lone packet and a two-packet collision at
// the ends of the accepted SF range, SF 7 and SF 12 (where LDRO is on),
// along the path tnbgen → tnbdecode takes: the trace is written with
// trace.WriteIQ16 at OSF 8, read back with trace.ReadIQ16 and decoded with
// tnbdecode's receiver configuration.
func TestSFRoundTripIQ16(t *testing.T) {
	for _, sf := range []int{7, 12} {
		p := lora.MustParams(sf, 2, 125e3, 8)
		sym := float64(p.SymbolSamples())
		pkt := float64(p.PacketSamples(8))
		rng := rand.New(rand.NewSource(int64(900 + sf)))
		b := trace.NewBuilder(p, (2.5*pkt+15*sym)/p.SampleRate(), 1, rng)
		// The collision's weaker packet starts 10.35 symbols into the
		// stronger one, after its upchirps. A weaker preamble that starts
		// inside a stronger one's upchirps is lost at every SF, a detection
		// limit this test does not cover.
		starts := []float64{sym + 0.375, 1.5*pkt + 3.25*sym + 0.625, 1.5*pkt + 13.6*sym}
		snrs := []float64{6, 9, 4}
		cfos := []float64{1200, -800, 2500}
		var sent [][]uint8
		for i, s := range starts {
			payload := []uint8(fmt.Sprintf("sf%02d-p%d", sf, i))
			sent = append(sent, payload)
			if err := b.AddPacket(i, 0, payload, s, snrs[i], cfos[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		tr, _ := b.Build()
		var iq bytes.Buffer
		if err := trace.WriteIQ16(&iq, tr); err != nil {
			t.Fatal(err)
		}
		rp := lora.MustParams(sf, 4, 125e3, 8)
		rt, err := trace.ReadIQ16(&iq, rp.SampleRate())
		if err != nil {
			t.Fatal(err)
		}
		decoded := New(Config{Params: rp, UseBEC: true}).Decode(rt)
		for i, payload := range sent {
			found := false
			for _, d := range decoded {
				found = found || bytes.Equal(d.Payload, payload)
			}
			if !found {
				t.Errorf("SF %d: packet %d (%q) not decoded; got %d packets", sf, i, payload, len(decoded))
			}
		}
	}
}
