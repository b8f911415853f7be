package stagegraph

import (
	"bytes"
	"strings"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/obs"
)

// finalTraces returns the final-verdict traces in the tracer's ring.
func finalTraces(tracer *obs.Tracer) []*obs.PacketTrace {
	var out []*obs.PacketTrace
	for _, pt := range tracer.Snapshot() {
		if pt.Final {
			out = append(out, pt)
		}
	}
	return out
}

func TestTraceDecodedPacket(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	var jsonl bytes.Buffer
	tracer := obs.New(obs.Options{Sink: &jsonl, RingSize: 16})
	tr, _ := makeTrace(t, 200, p, 1.0, []txSpec{
		{start: 20000.4, snr: 8, cfo: 2100, payload: payloadOf(1)},
	})
	r := New(Config{Params: p, UseBEC: true, Tracer: tracer})
	decoded := r.Decode(tr)
	if len(decoded) != 1 {
		t.Fatalf("decoded %d packets", len(decoded))
	}

	d := decoded[0]
	if d.Trace == nil {
		t.Fatal("Decoded.Trace not attached")
	}
	if d.DataSymbols <= 0 || d.AirtimeSec <= 0 {
		t.Errorf("airtime accounting missing: symbols=%d airtime=%g", d.DataSymbols, d.AirtimeSec)
	}
	// 14-byte payload + CRC at SF8 CR4: airtime is preamble plus the data
	// symbols, all lasting SymbolDuration.
	wantAir := (p.PreambleSymbols() + float64(d.DataSymbols)) * p.SymbolDuration()
	if d.AirtimeSec != wantAir {
		t.Errorf("airtime %g, want %g", d.AirtimeSec, wantAir)
	}

	pt := d.Trace
	if !pt.OK || !pt.Final || pt.Pass != 1 {
		t.Errorf("trace verdict: ok=%v final=%v pass=%d", pt.OK, pt.Final, pt.Pass)
	}
	if pt.FailureReason != "" {
		t.Errorf("decoded packet carries failure reason %q", pt.FailureReason)
	}
	if pt.SyncScore != 1 {
		t.Errorf("clean packet sync score %.2f, want 1", pt.SyncScore)
	}
	if len(pt.Symbols) == 0 {
		t.Fatal("no symbol decisions recorded")
	}
	assigned := 0
	for _, sd := range pt.Symbols {
		if sd.Bin >= 0 {
			assigned++
		}
	}
	if assigned == 0 {
		t.Error("all symbol decisions are fallbacks")
	}
	if len(pt.Blocks) == 0 {
		t.Error("no BEC block outcomes recorded")
	}

	counts, err := obs.ValidateJSONL(&jsonl)
	if err != nil {
		t.Fatalf("exported JSONL invalid: %v", err)
	}
	if counts[obs.TypePacket] == 0 || counts[obs.TypeDetect] == 0 {
		t.Errorf("JSONL missing record types: %v", counts)
	}
}

func TestFailureAttributionCFOBias(t *testing.T) {
	// Inject an integer-cycle CFO estimation error after detection: the
	// dechirped preamble no longer lands on bin 0, the sync score
	// collapses, and the verdict must attribute the loss to sync — the
	// stage the fault was injected into — not to BEC or the CRC.
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, _ := makeTrace(t, 200, p, 1.0, []txSpec{
		{start: 20000.4, snr: 8, cfo: 2100, payload: payloadOf(1)},
	})

	// Control: same trace decodes cleanly without the fault.
	if n := len(New(Config{Params: p, UseBEC: true}).Decode(tr)); n != 1 {
		t.Fatalf("control decode: %d packets", n)
	}

	var jsonl bytes.Buffer
	tracer := obs.New(obs.Options{Sink: &jsonl, RingSize: 16})
	r := New(Config{Params: p, UseBEC: true, Tracer: tracer, FaultCFOBiasCycles: 6})
	if n := len(r.Decode(tr)); n != 0 {
		t.Fatalf("decoded %d packets despite 6-cycle CFO fault", n)
	}

	final := finalTraces(tracer)
	if len(final) != 1 {
		t.Fatalf("%d final traces, want 1", len(final))
	}
	pt := final[0]
	if pt.OK {
		t.Fatal("trace claims success")
	}
	if pt.FailureReason != obs.FailNoSync {
		t.Errorf("failure reason %q, want %q", pt.FailureReason, obs.FailNoSync)
	}
	if pt.SyncScore >= 0.5 {
		t.Errorf("sync score %.2f under integer CFO error", pt.SyncScore)
	}
	if !strings.Contains(jsonl.String(), string(obs.FailNoSync)) {
		t.Error("exported JSONL does not name the injected failure stage")
	}
}

func TestFailureAttributionBECBudget(t *testing.T) {
	// A weak packet with a clean preamble whose payload is hit by a strong
	// collider: the default CRC-test budget recovers it, but W=1 starves
	// the BEC candidate search, and the verdict must say so.
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	specs := []txSpec{
		{start: 20000.4, snr: 4, cfo: -3300, payload: payloadOf(1)},
		{start: 20000.4 + 10.3*sym, snr: 14, cfo: 2100, payload: payloadOf(2)},
	}
	tr, recs := makeTrace(t, 308, p, 1.3, specs)

	// Control: the default budget decodes both packets.
	rd := New(Config{Params: p, UseBEC: true, Seed: 7})
	if got := countDecoded(rd.Decode(tr), recs); got != 2 {
		t.Fatalf("control decode: %d/2 packets", got)
	}

	var jsonl bytes.Buffer
	tracer := obs.New(obs.Options{Sink: &jsonl, RingSize: 16})
	r := New(Config{Params: p, UseBEC: true, Seed: 7, W: 1, Tracer: tracer})
	if got := countDecoded(r.Decode(tr), recs); got != 1 {
		t.Fatalf("W=1 decode: %d/2 packets, want exactly 1", got)
	}

	var failed *obs.PacketTrace
	for _, pt := range finalTraces(tracer) {
		if !pt.OK {
			if failed != nil {
				t.Fatal("more than one failed final trace")
			}
			failed = pt
		}
	}
	if failed == nil {
		t.Fatal("no failed final trace recorded")
	}
	if failed.FailureReason != obs.FailBECBudget {
		t.Errorf("failure reason %q, want %q", failed.FailureReason, obs.FailBECBudget)
	}
	if !failed.BECExhausted {
		t.Error("BECExhausted flag not set")
	}
	if !strings.Contains(jsonl.String(), string(obs.FailBECBudget)) {
		t.Error("exported JSONL does not name the exhausted-budget stage")
	}
}

func TestTracedDecodeMatchesUntraced(t *testing.T) {
	// Tracing must observe, never perturb: the decoded set with a Tracer
	// attached has to match the nil-Tracer run bit for bit.
	p := lora.MustParams(8, 4, 125e3, 8)
	sym := float64(p.SymbolSamples())
	tr, _ := makeTrace(t, 210, p, 1.2, []txSpec{
		{start: 20000.4, snr: 12, cfo: 2100, payload: payloadOf(1)},
		{start: 20000.4 + 11.5*sym, snr: 7, cfo: -3300, payload: payloadOf(2)},
	})

	bare := New(Config{Params: p, UseBEC: true}).Decode(tr)
	traced := New(Config{Params: p, UseBEC: true,
		Tracer: obs.New(obs.Options{RingSize: 16})}).Decode(tr)
	if len(bare) != len(traced) {
		t.Fatalf("traced run decoded %d packets, bare %d", len(traced), len(bare))
	}
	for i := range bare {
		if !bytes.Equal(bare[i].Payload, traced[i].Payload) {
			t.Errorf("packet %d payload differs between traced and bare runs", i)
		}
	}
}
