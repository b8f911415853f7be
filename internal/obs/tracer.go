package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Options configures a Tracer.
type Options struct {
	// Sink receives one JSON record per line (JSONL). Nil disables export;
	// the ring and counters still work.
	Sink io.Writer
	// Spill additionally receives every encoded record with its index
	// digest — the hook the persistent trace store attaches to. Sink and
	// Spill see the same bytes in the same order.
	Spill Spill
	// RingSize caps the in-memory ring of finished packet traces served at
	// /debug/traces. 0 disables the ring.
	RingSize int
}

// Tracer collects decode traces from every pipeline stage. A nil *Tracer is
// fully inert: every method is safe to call and does nothing, so the
// instrumented hot path pays one nil check (the PipelineMetrics pattern).
//
// One Tracer may serve many receivers (e.g. a gateway with several
// connections); all methods are safe for concurrent use. WithOrigin derives
// per-connection views that share the sink, spill, ring and counters while
// stamping each record with its fleet position.
type Tracer struct {
	s      *tracerState
	origin *Origin
}

// tracerState is the shared core behind a Tracer and all its WithOrigin
// views.
type tracerState struct {
	mu     sync.Mutex
	out    io.Writer
	spill  Spill
	ring   []*PacketTrace
	ringAt int
	full   bool

	window   uint64
	packets  uint64
	decoded  uint64
	failures map[FailureReason]uint64
}

// New builds a Tracer. All options may be zero: the Tracer then only
// counts, which is still useful for FailureCounts.
func New(o Options) *Tracer {
	s := &tracerState{
		out:      o.Sink,
		spill:    o.Spill,
		failures: make(map[FailureReason]uint64),
	}
	if o.RingSize > 0 {
		s.ring = make([]*PacketTrace, o.RingSize)
	}
	return &Tracer{s: s}
}

// WithOrigin returns a view of the tracer that stamps every record it emits
// with the given fleet origin (gateway, channel, SF). The view shares the
// parent's sink, spill, ring and counters; the parent and other views are
// unaffected. Nil receivers stay nil, preserving the inert-tracer pattern.
func (t *Tracer) WithOrigin(o Origin) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{s: t.s, origin: &o}
}

// emit marshals rec once and fans it out to the sink and the spill, in that
// order. Callers hold s.mu, so lines land in both in one global order.
// Encoding or write errors (closed file, full disk) drop the sink rather
// than failing the decode: tracing is diagnostic, not load-bearing.
func (s *tracerState) emit(rec any, m RecordMeta) {
	if s.out == nil && s.spill == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if s.spill != nil {
		s.spill.Append(line, m)
	}
	if s.out != nil {
		if _, err := s.out.Write(append(line, '\n')); err != nil {
			s.out = nil
		}
	}
}

// NextWindow advances and returns the receiver-window sequence number.
// Receivers call it once per processed window so packet IDs from different
// windows (or different receivers sharing the tracer) never collide.
func (t *Tracer) NextWindow() uint64 {
	if t == nil {
		return 0
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.s.window++
	return t.s.window
}

// NewPacket opens a trace for one detected packet in the given window and
// pass. Returns nil on a nil tracer, which the PacketTrace methods accept.
func (t *Tracer) NewPacket(window uint64, id, pass int, det Detection) *PacketTrace {
	if t == nil {
		return nil
	}
	return &PacketTrace{Window: window, ID: id, Pass: pass, Detection: det}
}

// Finish seals a trace: stamps its type and origin, writes the JSONL
// record, inserts it into the ring, and updates the failure counters.
// Final=false traces (pass-1 failures about to be retried) are exported but
// not counted, so FailureCounts reflects per-packet verdicts, not
// per-attempt ones.
func (t *Tracer) Finish(pt *PacketTrace) {
	if t == nil || pt == nil {
		return
	}
	pt.Type = TypePacket
	if pt.Origin == nil {
		pt.Origin = t.origin
	}
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit(pt, metaFor(TypePacket, string(pt.FailureReason), pt.Origin))
	if len(s.ring) > 0 {
		s.ring[s.ringAt] = pt
		s.ringAt++
		if s.ringAt == len(s.ring) {
			s.ringAt = 0
			s.full = true
		}
	}
	if pt.Final {
		s.packets++
		if pt.OK {
			s.decoded++
		} else if pt.FailureReason != "" {
			s.failures[pt.FailureReason]++
		}
	}
}

// OnDetect exports one detection-stage event.
func (t *Tracer) OnDetect(ev DetectEvent) {
	if t == nil {
		return
	}
	ev.Type = TypeDetect
	if ev.Origin == nil {
		ev.Origin = t.origin
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.s.emit(&ev, metaFor(TypeDetect, ev.Reason, ev.Origin))
}

// OnStream exports one stream-layer event.
func (t *Tracer) OnStream(event string, absStart float64) {
	if t == nil {
		return
	}
	ev := StreamEvent{Type: TypeStream, Event: event, AbsStart: absStart, Origin: t.origin}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.s.emit(&ev, metaFor(TypeStream, event, ev.Origin))
}

// OnConn exports one gateway connection-level event. The event
// should be one of the ConnEvents taxonomy; unknown events are still
// exported (they fail ValidateJSONL, which is the point — the taxonomy and
// the emitters are kept in sync by the schema check).
func (t *Tracer) OnConn(event, remote, detail string) {
	if t == nil {
		return
	}
	ev := ConnEvent{Type: TypeConn, Event: event, Remote: remote, Detail: detail, Origin: t.origin}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.s.emit(&ev, metaFor(TypeConn, event, ev.Origin))
}

// OnNet exports one network-server event. The event's own Origin (built
// from the uplink's gateway/channel/SF metadata) wins over the tracer's.
func (t *Tracer) OnNet(ev NetEvent) {
	if t == nil {
		return
	}
	ev.Type = TypeNet
	if ev.Origin == nil {
		ev.Origin = t.origin
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	t.s.emit(&ev, metaFor(TypeNet, ev.Reason, ev.Origin))
}

// SetAbsStart backfills the stream-absolute start on a finished trace.
// Taken under the tracer lock because the trace may already be visible to
// the /debug/traces handler via the ring.
func (t *Tracer) SetAbsStart(pt *PacketTrace, abs float64) {
	if t == nil || pt == nil {
		return
	}
	t.s.mu.Lock()
	pt.AbsStart = abs
	t.s.mu.Unlock()
}

// Snapshot returns copies of the ring's finished traces, oldest first. The
// copies are detached from the ring, so callers may hold or encode them
// without the tracer lock (Symbols/Blocks slices are shared but immutable
// after Finish).
func (t *Tracer) Snapshot() []*PacketTrace {
	if t == nil {
		return nil
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	var out []*PacketTrace
	appendCopies := func(src []*PacketTrace) {
		for _, pt := range src {
			cp := *pt
			out = append(out, &cp)
		}
	}
	if t.s.full {
		appendCopies(t.s.ring[t.s.ringAt:])
	}
	appendCopies(t.s.ring[:t.s.ringAt])
	return out
}

// FailureCounts returns (total final packets, decoded, failures by reason).
func (t *Tracer) FailureCounts() (packets, decoded uint64, byReason map[FailureReason]uint64) {
	if t == nil {
		return 0, 0, nil
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	m := make(map[FailureReason]uint64, len(t.s.failures))
	for k, v := range t.s.failures {
		m[k] = v
	}
	return t.s.packets, t.s.decoded, m
}
