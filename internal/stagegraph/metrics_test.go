package stagegraph

import (
	"testing"

	"tnb/internal/lora"
	"tnb/internal/metrics"
)

// TestPipelineMetricsRecorded runs an instrumented receiver over a
// two-packet collision and checks every stage histogram and the pipeline
// counters observed the run.
func TestPipelineMetricsRecorded(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, recs := makeTrace(t, 640, p, 1.5, []txSpec{
		{start: 20000, snr: 10, cfo: 1500, payload: payloadOf(1)},
		{start: 52000, snr: 9, cfo: -2400, payload: payloadOf(2)},
	})

	reg := metrics.NewRegistry()
	met := NewPipelineMetrics(reg)
	r := New(Config{Params: p, UseBEC: true, Metrics: met})
	decoded := r.Decode(tr)
	if n := countDecoded(decoded, recs); n != 2 {
		t.Fatalf("decoded %d/2 packets", n)
	}

	for name, h := range map[string]*metrics.Histogram{
		"detect":        met.DetectSeconds,
		"detect_scan":   met.DetectScanSeconds,
		"detect_refine": met.DetectRefineSeconds,
		"sigcalc":       met.SigCalcSeconds,
		"thrive":        met.ThriveSeconds,
		"decode":        met.DecodeSeconds,
	} {
		if h.Count() == 0 {
			t.Errorf("stage %q recorded no observations", name)
		}
	}
	if scan, refine, all := met.DetectScanSeconds.Sum(), met.DetectRefineSeconds.Sum(), met.DetectSeconds.Sum(); scan <= 0 || refine <= 0 || scan+refine > all {
		t.Errorf("detect_scan %gs + detect_refine %gs, want both > 0 and within detect %gs", scan, refine, all)
	}
	if v := met.PacketsDetected.Value(); v < 2 {
		t.Errorf("packets detected = %d, want >= 2", v)
	}
	if v := met.PacketsDecoded.Value(); v != uint64(len(decoded)) {
		t.Errorf("packets decoded counter = %d, want %d", v, len(decoded))
	}
	if v := met.Windows.Value(); v != 1 {
		t.Errorf("windows = %d, want 1", v)
	}
}

// TestNilMetricsIsNoop checks the un-instrumented receiver works.
func TestNilMetricsIsNoop(t *testing.T) {
	p := lora.MustParams(8, 4, 125e3, 8)
	tr, recs := makeTrace(t, 641, p, 1.0, []txSpec{
		{start: 20000, snr: 10, cfo: 0, payload: payloadOf(3)},
	})
	r := New(Config{Params: p, UseBEC: true})
	if n := countDecoded(r.Decode(tr), recs); n != 1 {
		t.Fatalf("decoded %d/1 packets", n)
	}
}

// TestNilPipelineMetricsHooks pins the nil-receiver safety of every stage
// hook.
func TestNilPipelineMetricsHooks(t *testing.T) {
	var m *PipelineMetrics
	m.observeDetect(m.now())
	m.observeSigCalc(m.now())
	m.observeThrive(m.now())
	m.observeDecode(m.now())
	m.onDetected(1)
	m.onDecoded(Decoded{Pass: 2, Rescued: 3})
	m.onDecodeFailed()
	m.onPoolWorkers(4)
}

func TestDefaultPipelineMetricsShared(t *testing.T) {
	if DefaultPipelineMetrics() != DefaultPipelineMetrics() {
		t.Error("DefaultPipelineMetrics not a singleton")
	}
}
