// Package stream adapts the block-oriented TnB receiver to a continuous
// sample stream, the shape a live gateway consumes: samples arrive in
// arbitrary-size chunks, packets may straddle chunk boundaries, and decoded
// packets must be emitted exactly once with absolute timestamps.
//
// The streamer buffers one processing window plus an overlap region long
// enough to hold the longest packet. Each processing pass decodes the
// whole window but only commits packets that start before the overlap;
// later starters are re-seen (complete) in the next window.
package stream

import (
	"errors"
	"fmt"
	"sync/atomic"

	"tnb/internal/lora"
	"tnb/internal/obs"
	"tnb/internal/stagegraph"
)

// ErrConcurrentUse is returned by Feed and Flush when a call overlaps
// another: a Streamer is a stateful single-stream decoder and must be
// driven from one goroutine at a time.
var ErrConcurrentUse = errors.New("stream: concurrent Feed/Flush call; Streamer is not safe for concurrent use")

// OverflowError is returned by Feed when accepting a chunk would push the
// sample buffer past its hard ceiling. The buffer is left untouched: the
// caller can shrink its chunks, drop the stream, or (as the gateway does)
// reply with a typed error instead of letting one client grow the process
// without bound.
type OverflowError struct {
	Buffered int // samples already buffered
	Incoming int // samples in the rejected chunk
	Limit    int // the configured ceiling
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("stream: buffer overflow: %d buffered + %d incoming exceeds ceiling %d",
		e.Buffered, e.Incoming, e.Limit)
}

// Decoded is a stream-level decode: a receiver decode with the
// stream-absolute sample position.
type Decoded struct {
	stagegraph.Decoded
	// AbsStart is the packet start in samples since the first Feed call.
	AbsStart float64
}

// Streamer incrementally decodes a single-antenna sample stream. It is NOT
// safe for concurrent use: Feed and Flush mutate the sample buffer and the
// dedup state in place, so overlapping calls would corrupt both. The
// contract is enforced by a cheap guard — a reentrant call returns
// ErrConcurrentUse instead of corrupting the buffer.
type Streamer struct {
	rx     *stagegraph.Pipeline
	params lora.Params
	met    *Metrics
	tracer *obs.Tracer
	inUse  atomic.Bool

	// window is the number of samples decoded per pass; overlap is the
	// carry-over that lets boundary packets be seen whole.
	window  int
	overlap int
	// maxBuffer is the hard sample-buffer ceiling; Feed rejects chunks
	// that would exceed it with an OverflowError. 0 disables the ceiling.
	maxBuffer int

	buf       []complex128
	absBase   int // absolute sample index of buf[0]
	emitted   map[string]bool
	maxEmit   int // cap on the dedup set
	collected []Decoded
}

// Config tunes the streamer.
type Config struct {
	// Receiver configures the decoder. Its MaxPayloadLen (0 → 48 bytes)
	// also bounds the packet length the overlap must cover; the window is
	// 4× that packet length.
	Receiver stagegraph.Config
	// MaxBufferSamples is the hard ceiling on buffered samples. A Feed
	// that would exceed it is rejected with a typed *OverflowError
	// instead of growing the buffer. 0 selects 4× (window + overlap) —
	// comfortably above steady state, which never exceeds
	// window + overlap + one chunk; negative disables the ceiling.
	MaxBufferSamples int
	// Metrics receives streamer counters and the buffer-occupancy gauge;
	// nil disables them. The receiver's own instruments are configured
	// separately via Receiver.Metrics.
	Metrics *Metrics
}

// New builds a streamer.
func New(cfg Config) (*Streamer, error) {
	p := cfg.Receiver.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxPayload := cfg.Receiver.MaxPayloadLen
	if maxPayload == 0 {
		maxPayload = 48
	}
	pktLen := p.PacketSamples(maxPayload)
	overlap := pktLen + 2*p.SymbolSamples()
	window := 4 * pktLen
	maxBuffer := cfg.MaxBufferSamples
	switch {
	case maxBuffer == 0:
		maxBuffer = 4 * (window + overlap)
	case maxBuffer < 0:
		maxBuffer = 0
	case maxBuffer < window+overlap:
		return nil, fmt.Errorf("stream: buffer ceiling %d smaller than window+overlap %d",
			maxBuffer, window+overlap)
	}
	return &Streamer{
		rx:        stagegraph.New(cfg.Receiver),
		params:    p,
		met:       cfg.Metrics,
		tracer:    cfg.Receiver.Tracer,
		window:    window,
		overlap:   overlap,
		maxBuffer: maxBuffer,
		emitted:   map[string]bool{},
		maxEmit:   4096,
	}, nil
}

// WindowSamples returns the processing block size.
func (s *Streamer) WindowSamples() int { return s.window }

// OverlapSamples returns the boundary carry-over length.
func (s *Streamer) OverlapSamples() int { return s.overlap }

// MaxBufferSamples returns the hard buffer ceiling (0 when disabled).
func (s *Streamer) MaxBufferSamples() int { return s.maxBuffer }

// Feed appends samples to the stream and returns any packets newly decoded
// by processing passes this chunk completed. It returns ErrConcurrentUse if
// it overlaps another Feed or Flush call.
func (s *Streamer) Feed(samples []complex128) ([]Decoded, error) {
	if !s.inUse.CompareAndSwap(false, true) {
		return nil, ErrConcurrentUse
	}
	defer s.inUse.Store(false)

	if s.maxBuffer > 0 && len(s.buf)+len(samples) > s.maxBuffer {
		s.met.onOverflow()
		return nil, &OverflowError{Buffered: len(s.buf), Incoming: len(samples), Limit: s.maxBuffer}
	}
	at := len(s.buf)
	if need := at + len(samples); need > cap(s.buf) {
		// Grow once to the steady-state size — a full window pass plus
		// this chunk — instead of letting append double its way there
		// chunk by chunk.
		size := s.window + s.overlap + len(samples)
		if s.maxBuffer > 0 {
			size = min(size, s.maxBuffer)
		}
		buf := make([]complex128, at, max(size, need))
		copy(buf, s.buf)
		s.buf = buf
	}
	s.buf = append(s.buf, samples...)
	// Sanitize the appended region in place (the caller's slice is never
	// touched): NaN/Inf samples would propagate through every FFT in the
	// window and poison detection for well-behaved packets, so they are
	// zeroed — a silence fault, the least damaging interpretation.
	if n := zeroNonFinite(s.buf[at:]); n > 0 {
		s.met.onNonFinite(n)
		s.tracer.OnStream("sanitized", float64(s.absBase+at))
	}
	var out []Decoded
	for len(s.buf) >= s.window+s.overlap {
		out = append(out, s.process(s.window+s.overlap, float64(s.window))...)
		s.met.onWindowPass()
		// Slide: drop the committed region, keep the overlap.
		s.buf = append(s.buf[:0], s.buf[s.window:]...)
		s.absBase += s.window
	}
	s.met.setBuffer(len(s.buf))
	return out, nil
}

// Flush decodes whatever remains in the buffer (end of stream) and returns
// the final packets. It returns ErrConcurrentUse if it overlaps another
// Feed or Flush call.
func (s *Streamer) Flush() ([]Decoded, error) {
	if !s.inUse.CompareAndSwap(false, true) {
		return nil, ErrConcurrentUse
	}
	defer s.inUse.Store(false)

	if len(s.buf) == 0 {
		return nil, nil
	}
	out := s.process(len(s.buf), float64(len(s.buf)))
	s.met.onFlush()
	s.tracer.OnStream("flush", float64(s.absBase))
	s.buf = s.buf[:0]
	s.met.setBuffer(0)
	return out, nil
}

// process decodes buf[:n] and commits packets starting before commitBefore
// (relative to the window).
func (s *Streamer) process(n int, commitBefore float64) []Decoded {
	var out []Decoded
	for _, d := range s.rx.DecodeSamples([][]complex128{s.buf[:n]}) {
		if d.Start >= commitBefore {
			s.met.onDeferred()
			s.tracer.OnStream("deferred", d.Start+float64(s.absBase))
			continue // will be seen whole in the next window
		}
		abs := d.Start + float64(s.absBase)
		// Dedup across overlapping windows: same payload within one
		// symbol-quantized cell (neighboring cells checked so a decode
		// re-estimated a fraction of a sample apart still matches).
		cell := int(abs) / s.params.SymbolSamples()
		dup := false
		for _, c := range []int{cell - 1, cell, cell + 1} {
			if s.emitted[dedupKey(d.Payload, c)] {
				dup = true
				break
			}
		}
		if dup {
			s.met.onDedup()
			s.tracer.OnStream("dedup", abs)
			continue
		}
		if len(s.emitted) >= s.maxEmit {
			s.emitted = map[string]bool{}
		}
		s.emitted[dedupKey(d.Payload, cell)] = true
		s.tracer.SetAbsStart(d.Trace, abs)
		out = append(out, Decoded{Decoded: d, AbsStart: abs})
	}
	return out
}

// dedupKey identifies a decode: payload bytes plus a time cell.
func dedupKey(payload []uint8, cell int) string {
	return fmt.Sprintf("%x@%d", payload, cell)
}

// zeroNonFinite replaces NaN/±Inf samples with silence, returning how many
// were hit. v−v is 0 for a finite v and NaN, hence nonzero, exactly when
// either part is NaN or ±Inf.
func zeroNonFinite(s []complex128) int {
	n := 0
	for i, v := range s {
		if v-v != 0 {
			s[i] = 0
			n++
		}
	}
	return n
}
