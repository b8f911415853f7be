// Package obs is the per-packet diagnostic counterpart to the aggregate
// internal/metrics subsystem: where metrics answer "how many packets failed",
// obs answers "why did THIS packet fail". Every detected packet gets a
// structured decode trace — detection parameters, per-symbol Thrive
// assignment decisions with the sibling/history cost split, per-block BEC
// outcomes, second-pass masking events, and a final verdict with a
// machine-readable failure reason.
//
// The Tracer is nil-safe throughout: a receiver configured without a tracer
// pays one nil check per packet, the same zero-cost pattern as
// stagegraph.PipelineMetrics. Traces are exported as JSONL (one record per
// line, discriminated by a "type" field), kept in a ring buffer for the
// /debug/traces ops endpoint, and summarized per report by the gateway.
package obs

// FailureReason classifies why a detected packet did not decode. The
// taxonomy is machine-readable: regression triage filters on it, and the
// failure-attribution tests assert an injected fault maps to its reason.
type FailureReason string

const (
	// FailTooShort: the trace ended before the packet's header symbols.
	FailTooShort FailureReason = "too_short"
	// FailNoSync: the preamble peaks do not align at the estimated
	// timing/CFO — detection's Q(δt, δf) search locked onto the wrong
	// synchronization (paper §7).
	FailNoSync FailureReason = "no_sync"
	// FailHeaderInvalid: no checksum-valid PHY header candidate was found.
	FailHeaderInvalid FailureReason = "header_invalid"
	// FailBECBudget: BEC produced candidate repairs but the W-capped CRC
	// test budget ran out before the candidate space was covered (§6.9).
	FailBECBudget FailureReason = "bec_budget_exhausted"
	// FailPeakMisassign: the decode failed and an outsized share of symbols
	// were assigned with near-zero cost margin or by fallback — the likely
	// culprit is Thrive picking the wrong peak (paper §5).
	FailPeakMisassign FailureReason = "peak_misassign_suspect"
	// FailBECUnrepairable: a payload block's error pattern exceeded BEC's
	// correction capability (§6.3, Table 1).
	FailBECUnrepairable FailureReason = "bec_unrepairable"
	// FailCRC: every candidate payload was tested and none passed the
	// packet CRC.
	FailCRC FailureReason = "crc_fail"
)

// FailureReasons lists the full taxonomy, for validation and summaries.
var FailureReasons = []FailureReason{
	FailTooShort, FailNoSync, FailHeaderInvalid, FailBECBudget,
	FailPeakMisassign, FailBECUnrepairable, FailCRC,
}

// Valid reports whether r is in the taxonomy.
func (r FailureReason) Valid() bool {
	for _, k := range FailureReasons {
		if r == k {
			return true
		}
	}
	return false
}

// Record type discriminators, the "type" field of every JSONL line.
const (
	TypePacket = "packet"
	TypeDetect = "detect"
	TypeStream = "stream"
	TypeConn   = "conn"
	TypeNet    = "net"
)

// Types lists every record type, for validation and query parsing.
var Types = []string{TypePacket, TypeDetect, TypeStream, TypeConn, TypeNet}

// Origin locates a record in the fleet: which gateway heard the samples, on
// which logical uplink channel, at which spreading factor. Records written
// by a single-process tool (tnbsim, tnbdecode) carry no origin; the gateway
// stamps each connection's records via Tracer.WithOrigin, and the netserver
// stamps its events from the uplink metadata. The persistent trace store
// indexes these three fields, so "channel 3, SF 8, gateway gw-2" is a
// selective query instead of a full scan.
type Origin struct {
	Gateway string `json:"gateway,omitempty"`
	Channel int    `json:"channel"`
	SF      int    `json:"sf"`
}

// NetEvent records one network-server verdict about an uplink that did not
// become a delivery: the drop-taxonomy counterpart to the gateway's
// ConnEvent. Reason carries the netserver drop taxonomy (bad_mic,
// replayed_fcnt, quota_exceeded, ...); TimeSec is the logical uplink time.
type NetEvent struct {
	Type    string  `json:"type"` // TypeNet
	Event   string  `json:"event"`
	Reason  string  `json:"reason,omitempty"`
	TimeSec float64 `json:"time_sec"`
	DevEUI  string  `json:"dev_eui,omitempty"`
	DevAddr string  `json:"dev_addr,omitempty"`
	Origin  *Origin `json:"origin,omitempty"`
}

// NetDrop is the NetEvent kind for a dropped uplink (the only kind today;
// deliveries and joins stay on the netserver's own event stream).
const NetDrop = "drop"

// Connection-level event reasons: how a gateway connection degraded or
// died. Where FailureReason explains one packet, these explain one client —
// every fault the ingest path survives maps to exactly one of them, so a
// chaos run is attributable from the trace stream alone.
const (
	// ConnReadTimeout: the client stalled past the read deadline.
	ConnReadTimeout = "read_timeout"
	// ConnWriteTimeout: the client stopped draining replies past the
	// write deadline.
	ConnWriteTimeout = "write_timeout"
	// ConnHelloRejected: the opening hello line was unparseable or out of
	// range (covers corrupted hello bytes).
	ConnHelloRejected = "hello_rejected"
	// ConnOverloadShed: the server refused the connection at its
	// connection budget before building a receiver.
	ConnOverloadShed = "overload_shed"
	// ConnSampleLimit: the client exceeded the per-connection sample cap.
	ConnSampleLimit = "sample_limit"
	// ConnStreamOverflow: the decode buffer hit its hard ceiling.
	ConnStreamOverflow = "stream_overflow"
	// ConnClientAbort: the transport died mid-stream (reset, broken pipe)
	// without the protocol's half-close.
	ConnClientAbort = "client_abort"
	// ConnShardOverload: the connection's (channel, SF) decode shard kept a
	// full queue past the grace period and the client was shed.
	ConnShardOverload = "shard_overload"
)

// ConnEvents lists the connection-event taxonomy, for validation.
var ConnEvents = []string{
	ConnReadTimeout, ConnWriteTimeout, ConnHelloRejected, ConnOverloadShed,
	ConnSampleLimit, ConnStreamOverflow, ConnClientAbort, ConnShardOverload,
}

// ConnEvent records one gateway connection-level failure or degradation.
type ConnEvent struct {
	Type  string `json:"type"` // TypeConn
	Event string `json:"event"`
	// Remote is the client address, when known.
	Remote string `json:"remote,omitempty"`
	// Detail carries the underlying error text.
	Detail string `json:"detail,omitempty"`
	// Origin is the connection's fleet position once the hello settled it;
	// pre-hello events (overload_shed, hello_rejected) have none.
	Origin *Origin `json:"origin,omitempty"`
}

// Detection holds the packet's synchronization estimate (paper §7): the
// integer and fractional start time, the CFO, and the preamble-derived
// quality and SNR estimates.
type Detection struct {
	// StartSample is the integer part of the packet start (rx samples).
	StartSample int `json:"start_sample"`
	// FracTiming is the fractional part of the start, in [0, 1) samples.
	FracTiming float64 `json:"frac_timing"`
	// CFOCycles is the carrier frequency offset in cycles per symbol.
	CFOCycles float64 `json:"cfo_cycles"`
	// CFOHz is the same CFO in Hz.
	CFOHz float64 `json:"cfo_hz"`
	// Quality is the gated preamble energy Q* that won the sync search.
	Quality float64 `json:"quality"`
	// SNRdB is the preamble-peak SNR estimate.
	SNRdB float64 `json:"snr_db"`
}

// SymbolDecision records one Thrive peak assignment (paper §5.3.4): the
// winning peak, the runner-up, the sibling/history cost split, and the cost
// margin separating the two.
type SymbolDecision struct {
	// Idx is the data-symbol index within the packet.
	Idx int `json:"idx"`
	// Bin is the assigned peak bin; -1 if the symbol was never assigned.
	Bin int `json:"bin"`
	// Alt is the runner-up peak bin (-1 when the symbol had no second
	// candidate).
	Alt int `json:"alt"`
	// Height is the assigned peak's signal-vector height.
	Height float64 `json:"height"`
	// SiblingCost and HistoryCost split the winning peak's matching cost
	// into its Eq. 1 and Eq. 2 components.
	SiblingCost float64 `json:"sib_cost"`
	HistoryCost float64 `json:"hist_cost"`
	// Cost is the winning peak's total matching cost.
	Cost float64 `json:"cost"`
	// Margin is the runner-up's total cost minus the winner's — how
	// decisively this peak won. -1 when there was no runner-up.
	Margin float64 `json:"margin"`
	// Fallback marks a symbol assigned its highest raw bin because no
	// located peak survived masking.
	Fallback bool `json:"fallback,omitempty"`
}

// Ambiguous reports whether the decision was a coin flip: assigned by
// fallback, or won by less than the given cost margin.
func (d SymbolDecision) Ambiguous(marginBelow float64) bool {
	return d.Fallback || (d.Margin >= 0 && d.Margin < marginBelow)
}

// BlockOutcome records one BEC block decode (paper §6).
type BlockOutcome struct {
	// Index is the payload block index; -1 is the PHY header block.
	Index int `json:"index"`
	// CR is the block's coding rate.
	CR int `json:"cr"`
	// ErrorCols is |Ξ|: the error columns observed against the cleaned
	// block Γ before companion expansion.
	ErrorCols int `json:"error_cols"`
	// Candidates is the number of BEC-fixed candidate blocks produced.
	Candidates int `json:"candidates"`
	// NoError reports the default decoder sufficed (R == Γ up to one
	// column for CR ≥ 3).
	NoError bool `json:"no_error,omitempty"`
	// Failed reports the error pattern exceeded BEC's capability.
	Failed bool `json:"failed,omitempty"`
	// Companion reports companion columns were added to the repair set
	// (§6.2).
	Companion bool `json:"companion,omitempty"`
}

// PacketTrace is one packet's decode trace — the unit of the JSONL export
// and the /debug/traces ring. All recording methods are safe on a nil
// receiver so call sites need no branching.
type PacketTrace struct {
	Type string `json:"type"` // TypePacket, set at Finish
	// Window is the tracer-global receiver-window sequence number.
	Window uint64 `json:"window"`
	// ID is the packet's detection index within the window.
	ID int `json:"id"`
	// Pass is the decoding attempt: 1, or 2 for the masked second pass.
	Pass int `json:"pass"`
	// Final marks the packet's last attempt: a pass-1 failure that will be
	// retried by the second pass is recorded with Final=false.
	Final bool `json:"final"`

	Detection Detection `json:"detection"`
	// SyncScore is the fraction of preamble upchirps whose signal-vector
	// maximum lands within ±1 bin of 0 at the estimated sync — near 1 for
	// a correct lock, near 0 for a wrong one.
	SyncScore float64 `json:"sync_score"`

	Symbols []SymbolDecision `json:"symbols,omitempty"`
	// MaskedPeaks counts known peaks of already-decoded packets masked out
	// of this packet's symbols (second-pass masking, paper §4).
	MaskedPeaks int `json:"masked_peaks,omitempty"`

	Blocks []BlockOutcome `json:"bec_blocks,omitempty"`
	// CRCTests is the number of packet-CRC evaluations spent (§6.9).
	CRCTests int `json:"crc_tests,omitempty"`
	// BECExhausted reports the W budget ran out with candidates untested.
	BECExhausted bool `json:"bec_exhausted,omitempty"`
	// ListDecodeTried counts runner-up substitution retries.
	ListDecodeTried int `json:"list_decode_tried,omitempty"`

	// Decode outcome. DataSymbols and AirtimeSec come from the decoded PHY
	// header and match stagegraph.Decoded's fields.
	OK            bool          `json:"ok"`
	FailureReason FailureReason `json:"failure_reason,omitempty"`
	Rescued       int           `json:"rescued,omitempty"`
	DataSymbols   int           `json:"data_symbols,omitempty"`
	AirtimeSec    float64       `json:"airtime_sec,omitempty"`
	// AbsStart is the packet start in stream-absolute samples, backfilled
	// by the stream layer (ring and summaries only; the JSONL line is
	// written at decode time with the window-relative Detection).
	AbsStart float64 `json:"abs_start,omitempty"`
	// Origin is stamped by the tracer at Finish (see Tracer.WithOrigin).
	Origin *Origin `json:"origin,omitempty"`
}

// InitSymbols pre-sizes the per-symbol decision table so Thrive can record
// decisions by index in any assignment order.
func (pt *PacketTrace) InitSymbols(n int) {
	if pt == nil {
		return
	}
	pt.Symbols = make([]SymbolDecision, n)
	for i := range pt.Symbols {
		pt.Symbols[i] = SymbolDecision{Idx: i, Bin: -1, Alt: -1, Margin: -1}
	}
}

// SetSymbol records one assignment decision. Out-of-range indices are
// dropped rather than panicking — a provisional symbol count can shrink
// once the PHY header is decoded.
func (pt *PacketTrace) SetSymbol(d SymbolDecision) {
	if pt == nil || d.Idx < 0 || d.Idx >= len(pt.Symbols) {
		return
	}
	pt.Symbols[d.Idx] = d
}

// AddBlock records one BEC block outcome.
func (pt *PacketTrace) AddBlock(b BlockOutcome) {
	if pt == nil {
		return
	}
	pt.Blocks = append(pt.Blocks, b)
}

// OnMask counts n known-peak maskings applied to this packet's symbols.
func (pt *PacketTrace) OnMask(n int) {
	if pt == nil {
		return
	}
	pt.MaskedPeaks += n
}

// Fail records the verdict for a failed decode.
func (pt *PacketTrace) Fail(reason FailureReason) {
	if pt == nil {
		return
	}
	pt.OK = false
	pt.FailureReason = reason
}

// AmbiguousSymbols counts decisions that were near coin flips (fallback or
// margin below the threshold) among the assigned symbols.
func (pt *PacketTrace) AmbiguousSymbols(marginBelow float64) (ambiguous, assigned int) {
	if pt == nil {
		return 0, 0
	}
	for _, s := range pt.Symbols {
		if s.Bin < 0 {
			continue
		}
		assigned++
		if s.Ambiguous(marginBelow) {
			ambiguous++
		}
	}
	return ambiguous, assigned
}

// DetectEvent records one detection-stage decision: a preamble candidate
// accepted as a packet or rejected with a reason (paper §7 steps 2–4).
type DetectEvent struct {
	Type string `json:"type"` // TypeDetect
	// Window and Bin locate the preamble candidate in the scan grid.
	Window int `json:"window"`
	Bin    int `json:"bin"`
	// Accepted is true when the candidate refined into a packet.
	Accepted bool `json:"accepted"`
	// Reason explains a rejection: "no_downchirp", "cfo_out_of_bounds",
	// "no_valid_start".
	Reason string `json:"reason,omitempty"`
	// Start and CFOCycles are the refined estimates of accepted packets.
	Start     float64 `json:"start,omitempty"`
	CFOCycles float64 `json:"cfo_cycles,omitempty"`
	// Origin is stamped by the tracer (see Tracer.WithOrigin).
	Origin *Origin `json:"origin,omitempty"`
}

// StreamEvent records a stream-layer decision about a decoded packet:
// "deferred" (straddles the commit boundary, re-seen next window), "dedup"
// (already emitted by an overlapping window), or "flush".
type StreamEvent struct {
	Type  string `json:"type"` // TypeStream
	Event string `json:"event"`
	// AbsStart is the packet start in stream-absolute samples.
	AbsStart float64 `json:"abs_start,omitempty"`
	// Origin is stamped by the tracer (see Tracer.WithOrigin).
	Origin *Origin `json:"origin,omitempty"`
}

// Summary is the compact per-packet digest the gateway attaches to each
// report when the client requests tracing.
type Summary struct {
	Pass             int           `json:"pass"`
	SyncScore        float64       `json:"sync_score"`
	DataSymbols      int           `json:"data_symbols,omitempty"`
	AirtimeSec       float64       `json:"airtime_sec,omitempty"`
	Rescued          int           `json:"rescued,omitempty"`
	CRCTests         int           `json:"crc_tests,omitempty"`
	MaskedPeaks      int           `json:"masked_peaks,omitempty"`
	AmbiguousSymbols int           `json:"ambiguous_symbols"`
	MinMargin        float64       `json:"min_margin"`
	FailureReason    FailureReason `json:"failure_reason,omitempty"`
}

// AmbiguityMargin is the cost-margin threshold below which an assignment
// counts as ambiguous, shared by summaries and failure attribution.
const AmbiguityMargin = 0.02

// Summarize digests a packet trace into the per-report summary.
func Summarize(pt *PacketTrace) Summary {
	if pt == nil {
		return Summary{}
	}
	amb, _ := pt.AmbiguousSymbols(AmbiguityMargin)
	minMargin := -1.0
	for _, s := range pt.Symbols {
		if s.Bin < 0 || s.Margin < 0 {
			continue
		}
		if minMargin < 0 || s.Margin < minMargin {
			minMargin = s.Margin
		}
	}
	return Summary{
		Pass:             pt.Pass,
		SyncScore:        pt.SyncScore,
		DataSymbols:      pt.DataSymbols,
		AirtimeSec:       pt.AirtimeSec,
		Rescued:          pt.Rescued,
		CRCTests:         pt.CRCTests,
		MaskedPeaks:      pt.MaskedPeaks,
		AmbiguousSymbols: amb,
		MinMargin:        minMargin,
		FailureReason:    pt.FailureReason,
	}
}
