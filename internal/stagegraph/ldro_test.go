package stagegraph

import (
	"bytes"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/trace"
)

func TestReceiverLDROEndToEnd(t *testing.T) {
	// SF 11 with the low-data-rate optimization: the full pipeline
	// (detection, Thrive, BEC) must decode through the reduced-rate
	// payload symbols.
	p := lora.MustParams(11, 4, 125e3, 4) // OSF 4 keeps the trace small
	p.LDRO = true
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
