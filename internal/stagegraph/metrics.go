package stagegraph

import (
	"sync"
	"time"

	"tnb/internal/metrics"
	"tnb/internal/parallel"
)

// PipelineMetrics instruments the receiver pipeline of Fig. 3. All methods
// are safe on a nil receiver, so an un-instrumented Receiver pays only a
// nil check per stage. Create with NewPipelineMetrics, or use
// DefaultPipelineMetrics for the process-wide registry.
type PipelineMetrics struct {
	// Stage latencies, one histogram per pipeline stage of Fig. 3.
	DetectSeconds       *metrics.Histogram // packet detection over the window
	DetectScanSeconds   *metrics.Histogram // its preamble-scan fan-out (wall)
	DetectRefineSeconds *metrics.Histogram // its candidate refinement, the §7 Q search (wall)
	SigCalcSeconds      *metrics.Histogram // per-packet signal-vector calculator setup
	ThriveSeconds       *metrics.Histogram // peak assignment (both passes)
	DecodeSeconds       *metrics.Histogram // Hamming/BEC decoding + CRC (both passes)

	// Pipeline counters.
	PacketsDetected  *metrics.Counter // detections entering assignment
	PacketsDecoded   *metrics.Counter // CRC-valid packets out (both passes)
	SecondPasspkts   *metrics.Counter // subset of decoded won by the second pass
	DecodeFailed     *metrics.Counter // assigned packets that failed header/CRC
	RescuedCodewords *metrics.Counter // codewords fixed by BEC beyond Hamming
	Windows          *metrics.Counter // DecodeSamples invocations
	QSearchFallbacks *metrics.Counter // §7 searches that swept δt without anchor interpolation

	// Worker-pool health: the configured pool width, and per-stage speedup
	// (busy/wall, 1000 = serial) plus pool utilization (busy/(wall·workers),
	// 1000 = every worker busy the whole stage), from the latest fan-out.
	PoolWorkers        *metrics.Gauge
	ScanSpeedup        *metrics.Gauge // detect: per-window preamble scan
	RefineSpeedup      *metrics.Gauge // detect: candidate refinement
	SigCalcSpeedup     *metrics.Gauge // calculator prefill + state build
	DecodeSpeedup      *metrics.Gauge // BEC/Hamming decode fan-out
	ScanUtilization    *metrics.Gauge
	RefineUtilization  *metrics.Gauge
	SigCalcUtilization *metrics.Gauge
	DecodeUtilization  *metrics.Gauge
}

// NewPipelineMetrics registers the pipeline instruments on reg.
func NewPipelineMetrics(reg *metrics.Registry) *PipelineMetrics {
	stage := func(s string) *metrics.Histogram {
		return reg.Histogram(`tnb_stage_duration_seconds{stage="`+s+`"}`, metrics.DurationBuckets)
	}
	return &PipelineMetrics{
		DetectSeconds:       stage("detect"),
		DetectScanSeconds:   stage("detect_scan"),
		DetectRefineSeconds: stage("detect_refine"),
		SigCalcSeconds:      stage("sigcalc"),
		ThriveSeconds:       stage("thrive"),
		DecodeSeconds:       stage("decode"),
		PacketsDetected:     reg.Counter("tnb_packets_detected_total"),
		PacketsDecoded:      reg.Counter("tnb_packets_decoded_total"),
		SecondPasspkts:      reg.Counter("tnb_packets_second_pass_total"),
		DecodeFailed:        reg.Counter("tnb_packets_decode_failed_total"),
		RescuedCodewords:    reg.Counter("tnb_bec_rescued_codewords_total"),
		Windows:             reg.Counter("tnb_receiver_windows_total"),
		QSearchFallbacks:    reg.Counter("tnb_detect_qsearch_fallback_total"),

		PoolWorkers:        reg.Gauge("tnb_parallel_workers"),
		ScanSpeedup:        reg.Gauge(`tnb_parallel_speedup_permille{stage="scan"}`),
		ScanUtilization:    reg.Gauge(`tnb_parallel_utilization_permille{stage="scan"}`),
		RefineSpeedup:      reg.Gauge(`tnb_parallel_speedup_permille{stage="refine"}`),
		SigCalcSpeedup:     reg.Gauge(`tnb_parallel_speedup_permille{stage="sigcalc"}`),
		DecodeSpeedup:      reg.Gauge(`tnb_parallel_speedup_permille{stage="decode"}`),
		RefineUtilization:  reg.Gauge(`tnb_parallel_utilization_permille{stage="refine"}`),
		SigCalcUtilization: reg.Gauge(`tnb_parallel_utilization_permille{stage="sigcalc"}`),
		DecodeUtilization:  reg.Gauge(`tnb_parallel_utilization_permille{stage="decode"}`),
	}
}

var (
	defaultPipelineOnce sync.Once
	defaultPipeline     *PipelineMetrics
)

// DefaultPipelineMetrics returns the shared instruments on metrics.Default —
// what cmd/tnbgateway serves and cmd/tnbsim dumps.
func DefaultPipelineMetrics() *PipelineMetrics {
	defaultPipelineOnce.Do(func() { defaultPipeline = NewPipelineMetrics(metrics.Default) })
	return defaultPipeline
}

// now returns the stage-timer start, or the zero time when disabled so the
// matching stage() call is a no-op and no clock is read.
func (m *PipelineMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// The observe* methods record one stage latency each; all are no-ops on a
// nil receiver or zero start, so call sites need no branching.

func (m *PipelineMetrics) observeDetect(start time.Time) {
	if m != nil {
		m.DetectSeconds.ObserveSince(start)
	}
}

func (m *PipelineMetrics) observeSigCalc(start time.Time) {
	if m != nil {
		m.SigCalcSeconds.ObserveSince(start)
	}
}

func (m *PipelineMetrics) observeThrive(start time.Time) {
	if m != nil {
		m.ThriveSeconds.ObserveSince(start)
	}
}

func (m *PipelineMetrics) observeDecode(start time.Time) {
	if m != nil {
		m.DecodeSeconds.ObserveSince(start)
	}
}

// onDecoded accounts one pipeline outcome.
func (m *PipelineMetrics) onDecoded(d Decoded) {
	if m == nil {
		return
	}
	m.PacketsDecoded.Inc()
	if d.Pass == 2 {
		m.SecondPasspkts.Inc()
	}
	if d.Rescued > 0 {
		m.RescuedCodewords.Add(uint64(d.Rescued))
	}
}

func (m *PipelineMetrics) onDecodeFailed() {
	if m != nil {
		m.DecodeFailed.Inc()
	}
}

func (m *PipelineMetrics) onDetected(n int) {
	if m != nil {
		m.Windows.Inc()
		m.PacketsDetected.Add(uint64(n))
	}
}

// onPoolWorkers records the resolved worker-pool width.
func (m *PipelineMetrics) onPoolWorkers(n int) {
	if m != nil {
		m.PoolWorkers.Set(int64(n))
	}
}

// The onStageParallel methods record one fan-out's speedup and utilization;
// the two detection fan-outs also record their wall time as a stage latency,
// and the refinement its Q-search fallbacks.

func (m *PipelineMetrics) onScanParallel(st parallel.Stats) {
	if m != nil {
		m.DetectScanSeconds.Observe(st.Wall.Seconds())
		m.ScanSpeedup.Set(st.SpeedupPermille())
		m.ScanUtilization.Set(st.UtilizationPermille())
	}
}

func (m *PipelineMetrics) onRefineParallel(st parallel.Stats, qFallbacks int) {
	if m != nil {
		m.DetectRefineSeconds.Observe(st.Wall.Seconds())
		m.QSearchFallbacks.Add(uint64(qFallbacks))
		m.RefineSpeedup.Set(st.SpeedupPermille())
		m.RefineUtilization.Set(st.UtilizationPermille())
	}
}

func (m *PipelineMetrics) onSigCalcParallel(st parallel.Stats) {
	if m != nil {
		m.SigCalcSpeedup.Set(st.SpeedupPermille())
		m.SigCalcUtilization.Set(st.UtilizationPermille())
	}
}

func (m *PipelineMetrics) onDecodeParallel(st parallel.Stats) {
	if m != nil {
		m.DecodeSpeedup.Set(st.SpeedupPermille())
		m.DecodeUtilization.Set(st.UtilizationPermille())
	}
}
