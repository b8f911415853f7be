package stream

import "tnb/internal/metrics"

// Metrics instruments the streamer. All methods are nil-safe so an
// un-instrumented Streamer pays only nil checks.
type Metrics struct {
	WindowPasses    *metrics.Counter // completed window decodes (Feed)
	Flushes         *metrics.Counter // end-of-stream flush decodes
	DeferredPackets *metrics.Counter // decodes pushed to the next window (overlap re-scan)
	DedupSuppressed *metrics.Counter // duplicate decodes dropped across overlaps
	BufferSamples   *metrics.Gauge   // samples currently buffered
	Overflows       *metrics.Counter // Feed chunks rejected at the buffer ceiling
	NonFinite       *metrics.Counter // NaN/Inf samples zeroed before decoding
}

// NewMetrics registers the streamer instruments on reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		WindowPasses:    reg.Counter("tnb_stream_window_passes_total"),
		Flushes:         reg.Counter("tnb_stream_flushes_total"),
		DeferredPackets: reg.Counter("tnb_stream_deferred_packets_total"),
		DedupSuppressed: reg.Counter("tnb_stream_dedup_suppressed_total"),
		BufferSamples:   reg.Gauge("tnb_stream_buffer_samples"),
		Overflows:       reg.Counter("tnb_stream_overflow_total"),
		NonFinite:       reg.Counter("tnb_stream_nonfinite_samples_total"),
	}
}

func (m *Metrics) onWindowPass() {
	if m != nil {
		m.WindowPasses.Inc()
	}
}

func (m *Metrics) onFlush() {
	if m != nil {
		m.Flushes.Inc()
	}
}

func (m *Metrics) onDeferred() {
	if m != nil {
		m.DeferredPackets.Inc()
	}
}

func (m *Metrics) onDedup() {
	if m != nil {
		m.DedupSuppressed.Inc()
	}
}

func (m *Metrics) setBuffer(n int) {
	if m != nil {
		m.BufferSamples.Set(int64(n))
	}
}

func (m *Metrics) onOverflow() {
	if m != nil {
		m.Overflows.Inc()
	}
}

func (m *Metrics) onNonFinite(n int) {
	if m != nil {
		m.NonFinite.Add(uint64(n))
	}
}
