package stagegraph

import (
	"bytes"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/trace"
)

// Failure-injection tests: the receiver must degrade gracefully, never
// panic, and never claim a CRC-passing decode that does not match a real
// transmission.

func TestReceiverTruncatedPacketAtTraceEnd(t *testing.T) {
	// A packet whose tail is cut off by the capture boundary: detection
	// may find the preamble but the payload cannot fully decode; the
	// receiver must not crash or mis-decode.
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(400))
	full := trace.NewBuilder(p, 1.0, 1, rng)
	payload := payloadOf(9)
	if err := full.AddPacket(0, 0, payload, 800_000, 12, 1500, nil); err != nil {
		t.Fatal(err)
	}
	tr, recs := full.Build()
	// Cut the trace in the middle of the packet's payload.
	cut := int(recs[0].StartSample) + recs[0].NumSamples/2
	tr.Antennas[0] = tr.Antennas[0][:cut]

	r := New(Config{Params: p, UseBEC: true})
	decoded := r.Decode(tr)
	for _, d := range decoded {
		if bytes.Equal(d.Payload, payload) {
			t.Error("truncated packet cannot legitimately decode")
		}
	}
}

func TestReceiverPreambleOnlyAtTraceEnd(t *testing.T) {
	// Only the preamble fits: the provisional symbol count goes to ~0.
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(401))
	b := trace.NewBuilder(p, 1.0, 1, rng)
	if err := b.AddPacket(0, 0, payloadOf(1), 700_000, 15, 0, nil); err != nil {
		t.Fatal(err)
	}
	tr, recs := b.Build()
	cut := int(recs[0].StartSample) + p.PreambleSamples() + p.SymbolSamples()
	tr.Antennas[0] = tr.Antennas[0][:cut]
	r := New(Config{Params: p, UseBEC: true})
	if decoded := r.Decode(tr); len(decoded) != 0 {
		t.Errorf("decoded %d packets from a preamble-only capture", len(decoded))
	}
}

func TestReceiverClippedIQ(t *testing.T) {
	// Saturated samples (as from an overloaded front end): decode should
	// still succeed for a strong clean packet.
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(402))
	b := trace.NewBuilder(p, 0.6, 1, rng)
	payload := payloadOf(2)
	if err := b.AddPacket(0, 0, payload, 20000, 15, 2000, nil); err != nil {
		t.Fatal(err)
	}
	tr, _ := b.Build()
	clip := 3.0
	for i, v := range tr.Antennas[0] {
		re, im := real(v), imag(v)
		if re > clip {
			re = clip
		} else if re < -clip {
			re = -clip
		}
		if im > clip {
			im = clip
		} else if im < -clip {
			im = -clip
		}
		tr.Antennas[0][i] = complex(re, im)
	}
	r := New(Config{Params: p, UseBEC: true})
	decoded := r.Decode(tr)
	found := false
	for _, d := range decoded {
		if bytes.Equal(d.Payload, payload) {
			found = true
		}
	}
	if !found {
		t.Error("clipped but strong packet should still decode")
	}
}

func TestReceiverNeverFalselyDecodes(t *testing.T) {
	// Across noise-only and garbage traces, a CRC pass must never appear.
	p := lora.MustParams(8, 2, 125e3, 8)
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(410 + seed))
		b := trace.NewBuilder(p, 0.8, 1, rng)
		b.NoisePower = 2.5
		tr, _ := b.Build()
		r := New(Config{Params: p, UseBEC: true, Seed: seed})
		if decoded := r.Decode(tr); len(decoded) != 0 {
			t.Errorf("seed %d: %d false decodes from noise", seed, len(decoded))
		}
	}
}

func TestReceiverTwoAntennas(t *testing.T) {
	// Two antennas with independent phases must combine coherently in the
	// signal vectors (power sum) and decode a weak packet at least as
	// well as one antenna.
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(420))
	b := trace.NewBuilder(p, 0.8, 2, rng)
	payload := payloadOf(5)
	if err := b.AddPacket(0, 0, payload, 30000.3, -2, 3000, nil); err != nil {
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
		t.Error("-2 dB packet should decode with 2 antennas")
	}
}

func TestReceiverMismatchedSF(t *testing.T) {
	// A trace of SF 10 packets processed with an SF 8 receiver: nothing
	// should decode (and nothing should crash).
	p10 := lora.MustParams(10, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(430))
	b := trace.NewBuilder(p10, 2.0, 1, rng)
	if err := b.AddPacket(0, 0, payloadOf(7), 50000, 15, 1000, nil); err != nil {
		t.Fatal(err)
	}
	tr, _ := b.Build()
	r := New(Config{Params: lora.MustParams(8, 4, 125e3, 8), UseBEC: true})
	if decoded := r.Decode(tr); len(decoded) != 0 {
		t.Errorf("SF mismatch produced %d decodes", len(decoded))
	}
}

func TestReceiverBackToBackPackets(t *testing.T) {
	// Same node transmitting twice in quick succession (no overlap):
	// both must decode.
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(440))
	b := trace.NewBuilder(p, 1.5, 1, rng)
	pl1, pl2 := payloadOf(11), payloadOf(12)
	pkt := float64(p.PacketSamples(14))
	if err := b.AddPacket(0, 0, pl1, 20000, 10, 1500, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPacket(0, 1, pl2, 20000+pkt+float64(2*p.SymbolSamples()), 10, 1500, nil); err != nil {
		t.Fatal(err)
	}
	tr, _ := b.Build()
	r := New(Config{Params: p, UseBEC: true})
	decoded := r.Decode(tr)
	got := map[string]bool{}
	for _, d := range decoded {
		got[string(d.Payload)] = true
	}
	if !got[string(pl1)] || !got[string(pl2)] {
		t.Errorf("back-to-back decode: got %d packets", len(decoded))
	}
}

func TestReceiverIdenticalStartTimes(t *testing.T) {
	// Two packets starting at the same instant with different CFOs: the
	// detector may merge them; the receiver must not crash and should
	// decode at least one.
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(450))
	b := trace.NewBuilder(p, 1.0, 1, rng)
	if err := b.AddPacket(0, 0, payloadOf(21), 20000, 12, 4000, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPacket(1, 0, payloadOf(22), 20000, 10, -4000, nil); err != nil {
		t.Fatal(err)
	}
	tr, recs := b.Build()
	r := New(Config{Params: p, UseBEC: true})
	decoded := r.Decode(tr)
	if countDecoded(decoded, recs) < 1 {
		t.Error("no packet decoded from simultaneous starts")
	}
}

func TestListDecodeRescuesBorderlinePackets(t *testing.T) {
	// Fixed SF 8, CR 2 collisions of three packets with random starts,
	// SNRs and CFOs, chosen because list decoding rescues one packet in
	// each that plain decoding loses. List decoding must decode strictly
	// more, keep every packet plain decoding got, and add only packets
	// that were sent.
	p := lora.MustParams(8, 2, 125e3, 8)
	sym := float64(p.SymbolSamples())
	for _, seed := range []int64{6, 60} {
		rng := rand.New(rand.NewSource(5000 + seed))
		b := trace.NewBuilder(p, 1.0, 1, rng)
		n := 3 + rng.Intn(3)
		for i := 0; i < n; i++ {
			start := 20000.4 + rng.Float64()*30*sym
			if err := b.AddPacket(i, 0, payloadOf(int(seed)*10+i), start, 2+rng.Float64()*14, -4000+rng.Float64()*8000, nil); err != nil {
				t.Fatal(err)
			}
		}
		tr, recs := b.Build()
		sent := map[string]bool{}
		for _, rec := range recs {
			sent[string(rec.Payload)] = true
		}
		plain := New(Config{Params: p, UseBEC: true, Seed: seed}).Decode(tr)
		list := New(Config{Params: p, UseBEC: true, ListDecode: true, Seed: seed}).Decode(tr)
		inList := map[string]bool{}
		for _, d := range list {
			inList[string(d.Payload)] = true
			if !sent[string(d.Payload)] {
				t.Errorf("seed %d: list decoding produced a payload nobody sent: %x", seed, d.Payload)
			}
		}
		for _, d := range plain {
			if !inList[string(d.Payload)] {
				t.Errorf("seed %d: list decoding lost a packet plain decoding got: %x", seed, d.Payload)
			}
		}
		np, nl := countDecoded(plain, recs), countDecoded(list, recs)
		if nl <= np {
			t.Errorf("seed %d: list decoding decoded %d of %d packets, plain %d; want more", seed, nl, len(recs), np)
		}
		t.Logf("seed %d: plain %d, list %d of %d packets", seed, np, nl, len(recs))
	}
}

func TestListDecodeNeverFalsePositive(t *testing.T) {
	// List substitution must not conjure CRC passes from noise.
	p := lora.MustParams(8, 2, 125e3, 8)
	rng := rand.New(rand.NewSource(1100))
	b := trace.NewBuilder(p, 0.8, 1, rng)
	b.NoisePower = 2
	tr, _ := b.Build()
	r := New(Config{Params: p, UseBEC: true, ListDecode: true})
	if decoded := r.Decode(tr); len(decoded) != 0 {
		t.Errorf("%d false decodes with list decoding", len(decoded))
	}
}
