package stagegraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/metrics"
	"tnb/internal/obs"
	"tnb/internal/trace"
)

// buildCollidedTrace synthesizes the multi-packet collided trace the
// receiver benchmarks use: six packets at staggered offsets and distinct
// CFOs over a 14-symbol span.
func buildCollidedTrace(t testing.TB, p lora.Params, seed int64) (*trace.Trace, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(p, 1.5, 1, rng)
	starts := b.ScheduleUniform(6, 14)
	for i, s := range starts {
		payload := make([]uint8, 14)
		rng.Read(payload)
		if err := b.AddPacket(i, 0, payload, s, 10, -3000+float64(i)*1200, nil); err != nil {
			t.Fatalf("add packet %d: %v", i, err)
		}
	}
	tr, _ := b.Build()
	return tr, len(starts)
}

// decodeSummary renders everything the determinism contract covers: the
// decoded set (payloads, starts, CFO, SNR, pass, rescued, symbol counts) and
// the pipeline counters.
func decodeSummary(out []Decoded, m *PipelineMetrics) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "decoded=%d\n", len(out))
	for _, d := range out {
		fmt.Fprintf(&buf, "payload=%x start=%.6f cfo=%.9f snr=%.9f pass=%d rescued=%d syms=%d air=%.9f\n",
			d.Payload, d.Start, d.CFOCycles, d.SNRdB, d.Pass, d.Rescued, d.DataSymbols, d.AirtimeSec)
	}
	fmt.Fprintf(&buf, "detected=%d decoded_total=%d second=%d failed=%d rescued=%d windows=%d\n",
		m.PacketsDetected.Value(), m.PacketsDecoded.Value(), m.SecondPasspkts.Value(),
		m.DecodeFailed.Value(), m.RescuedCodewords.Value(), m.Windows.Value())
	return buf.String()
}

// traceCounters summarizes the decode traces: per-packet outcome lines in
// ring order plus the tracer's aggregate failure counters.
func traceCounters(tr *obs.Tracer) string {
	var buf bytes.Buffer
	for _, pt := range tr.Snapshot() {
		fmt.Fprintf(&buf, "w=%d id=%d pass=%d ok=%t final=%t reason=%s crc=%d\n",
			pt.Window, pt.ID, pt.Pass, pt.OK, pt.Final, pt.FailureReason, pt.CRCTests)
	}
	packets, decoded, byReason := tr.FailureCounts()
	fmt.Fprintf(&buf, "packets=%d decoded=%d reasons=%v\n", packets, decoded, byReason)
	return buf.String()
}

// TestDecodeDeterministicAcrossWorkerCounts is the pipeline's central
// contract: the worker pool must never change what the receiver outputs.
// The same collided trace is decoded with several pool widths and every
// observable — decoded packets, pipeline counters, decode traces — must
// match the serial run byte for byte. Run under -race this also shakes out
// data races in the fan-out joints.
func TestDecodeDeterministicAcrossWorkerCounts(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	for _, seed := range []int64{7, 21} {
		tr, _ := buildCollidedTrace(t, p, seed)

		run := func(workers int) (string, string) {
			met := NewPipelineMetrics(metrics.NewRegistry())
			tracer := obs.New(obs.Options{RingSize: 64})
			r := New(Config{Params: p, UseBEC: true, Seed: seed,
				Workers: workers, Metrics: met, Tracer: tracer})
			out := r.Decode(tr)
			return decodeSummary(out, met), traceCounters(tracer)
		}

		refDec, refTr := run(1)
		if refDec == "decoded=0\n" {
			t.Fatalf("seed %d: serial reference decoded nothing", seed)
		}
		for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0), 0} {
			gotDec, gotTr := run(workers)
			if gotDec != refDec {
				t.Errorf("seed %d workers=%d: decoded set diverged from serial\nserial:\n%s\nworkers:\n%s",
					seed, workers, refDec, gotDec)
			}
			if gotTr != refTr {
				t.Errorf("seed %d workers=%d: decode traces diverged from serial\nserial:\n%s\nworkers:\n%s",
					seed, workers, refTr, gotTr)
			}
		}
	}
}

// TestWorkerGaugesRecorded checks that a parallel decode publishes the pool
// gauges: the resolved width and per-stage speedup/utilization permille.
func TestWorkerGaugesRecorded(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, _ := buildCollidedTrace(t, p, 7)
	met := NewPipelineMetrics(metrics.NewRegistry())
	r := New(Config{Params: p, UseBEC: true, Seed: 7, Workers: 4, Metrics: met})
	if len(r.Decode(tr)) == 0 {
		t.Fatal("decoded nothing")
	}
	if got := met.PoolWorkers.Value(); got != 4 {
		t.Errorf("PoolWorkers = %d, want 4", got)
	}
	for name, g := range map[string]*metrics.Gauge{
		"scan speedup":        met.ScanSpeedup,
		"scan utilization":    met.ScanUtilization,
		"refine speedup":      met.RefineSpeedup,
		"sigcalc speedup":     met.SigCalcSpeedup,
		"decode speedup":      met.DecodeSpeedup,
		"refine utilization":  met.RefineUtilization,
		"sigcalc utilization": met.SigCalcUtilization,
		"decode utilization":  met.DecodeUtilization,
	} {
		if g.Value() <= 0 {
			t.Errorf("%s gauge not recorded (%d)", name, g.Value())
		}
	}
}
