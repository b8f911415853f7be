package gateway

import (
	"fmt"

	"tnb/internal/metrics"
)

// Metrics instruments the network front-end. All methods are nil-safe.
type Metrics struct {
	ConnectionsActive *metrics.Gauge   // currently open client connections
	ConnectionsTotal  *metrics.Counter // connections accepted since start
	HelloRejected     *metrics.Counter // connections dropped at the hello line
	BytesIn           *metrics.Counter // raw IQ bytes read from clients
	ReportsOut        *metrics.Counter // decoded-packet reports written
	OverloadShed      *metrics.Counter // connections refused at the connection budget
	SampleLimit       *metrics.Counter // connections closed at the per-conn sample cap
	ReadTimeouts      *metrics.Counter // connections dropped by the read deadline
	WriteTimeouts     *metrics.Counter // connections dropped by the write deadline
	ClientAborts      *metrics.Counter // transports that died mid-stream (reset/broken pipe)
	StreamOverflow    *metrics.Counter // connections closed at the decode-buffer ceiling
	ShardsActive      *metrics.Gauge   // live (channel, SF) decode shards
	ShardBatches      *metrics.Counter // decode batches processed across all shards
	ShardOverload     *metrics.Counter // connections shed at a full shard queue
}

// NewMetrics registers the gateway instruments on reg. Registration is
// get-or-create, so calling it twice with the same registry returns the
// same instruments — tests use that to read what a Server recorded.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		ConnectionsActive: reg.Gauge("tnb_gateway_connections_active"),
		ConnectionsTotal:  reg.Counter("tnb_gateway_connections_total"),
		HelloRejected:     reg.Counter("tnb_gateway_hello_rejected_total"),
		BytesIn:           reg.Counter("tnb_gateway_bytes_in_total"),
		ReportsOut:        reg.Counter("tnb_gateway_reports_out_total"),
		OverloadShed:      reg.Counter("tnb_gateway_overload_shed_total"),
		SampleLimit:       reg.Counter("tnb_gateway_sample_limit_total"),
		ReadTimeouts:      reg.Counter("tnb_gateway_read_timeouts_total"),
		WriteTimeouts:     reg.Counter("tnb_gateway_write_timeouts_total"),
		ClientAborts:      reg.Counter("tnb_gateway_client_aborts_total"),
		StreamOverflow:    reg.Counter("tnb_gateway_stream_overflow_total"),
		ShardsActive:      reg.Gauge("tnb_gateway_shards_active"),
		ShardBatches:      reg.Counter("tnb_gateway_shard_batches_total"),
		ShardOverload:     reg.Counter("tnb_gateway_shard_overload_total"),
	}
}

// ShardMetrics instruments one (channel, SF) decode shard; the shard key is
// carried as a metric label, so every shard's queue behavior is visible
// individually on the ops endpoint. All methods are nil-safe.
type ShardMetrics struct {
	Batches    *metrics.Counter // decode batches processed by this shard
	QueueDepth *metrics.Gauge   // batches waiting or in flight on this shard
}

// NewShardMetrics registers the per-shard instruments for key on reg.
// Registration is get-or-create, matching NewMetrics.
func NewShardMetrics(reg *metrics.Registry, key ShardKey) *ShardMetrics {
	label := fmt.Sprintf("{shard=%q}", key.String())
	return &ShardMetrics{
		Batches:    reg.Counter("tnb_gateway_shard_batches_by_shard_total" + label),
		QueueDepth: reg.Gauge("tnb_gateway_shard_queue_depth" + label),
	}
}

func (m *ShardMetrics) onBatch() {
	if m != nil {
		m.Batches.Inc()
	}
}

func (m *ShardMetrics) onEnqueue() {
	if m != nil {
		m.QueueDepth.Inc()
	}
}

func (m *ShardMetrics) onDequeue() {
	if m != nil {
		m.QueueDepth.Dec()
	}
}

func (m *Metrics) onConnOpen() {
	if m != nil {
		m.ConnectionsTotal.Inc()
		m.ConnectionsActive.Inc()
	}
}

func (m *Metrics) onConnClose() {
	if m != nil {
		m.ConnectionsActive.Dec()
	}
}

func (m *Metrics) onHelloRejected() {
	if m != nil {
		m.HelloRejected.Inc()
	}
}

func (m *Metrics) onBytesIn(n int) {
	if m != nil {
		m.BytesIn.Add(uint64(n))
	}
}

func (m *Metrics) onReports(n int) {
	if m != nil {
		m.ReportsOut.Add(uint64(n))
	}
}

func (m *Metrics) onOverloadShed() {
	if m != nil {
		m.OverloadShed.Inc()
	}
}

func (m *Metrics) onSampleLimit() {
	if m != nil {
		m.SampleLimit.Inc()
	}
}

func (m *Metrics) onReadTimeout() {
	if m != nil {
		m.ReadTimeouts.Inc()
	}
}

func (m *Metrics) onWriteTimeout() {
	if m != nil {
		m.WriteTimeouts.Inc()
	}
}

func (m *Metrics) onClientAbort() {
	if m != nil {
		m.ClientAborts.Inc()
	}
}

func (m *Metrics) onStreamOverflow() {
	if m != nil {
		m.StreamOverflow.Inc()
	}
}

func (m *Metrics) onShardOpen() {
	if m != nil {
		m.ShardsActive.Inc()
	}
}

func (m *Metrics) onShardBatch() {
	if m != nil {
		m.ShardBatches.Inc()
	}
}

func (m *Metrics) onShardOverload() {
	if m != nil {
		m.ShardOverload.Inc()
	}
}
