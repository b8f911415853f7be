package stream

import (
	"bytes"
	"math/rand"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/obs"
	"tnb/internal/stagegraph"
	"tnb/internal/trace"
)

func streamParams() lora.Params { return lora.MustParams(8, 4, 125e3, 8) }

// buildLongTrace returns a multi-packet trace and its records.
func buildLongTrace(t *testing.T, seed int64, n int, durSec float64) (*trace.Trace, []trace.TxRecord) {
	t.Helper()
	p := streamParams()
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(p, durSec, 1, rng)
	starts := b.ScheduleUniform(n, 14)
	for i, s := range starts {
		payload := make([]uint8, 14)
		rng.Read(payload)
		if err := b.AddPacket(i, 0, payload, s, 8+4*rng.Float64(), -4000+8000*rng.Float64(), nil); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func newStreamer(t *testing.T) *Streamer {
	t.Helper()
	s, err := New(Config{Receiver: stagegraph.Config{Params: streamParams(), UseBEC: true}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustFeed(t *testing.T, s *Streamer, samples []complex128) []Decoded {
	t.Helper()
	out, err := s.Feed(samples)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustFlush(t *testing.T, s *Streamer) []Decoded {
	t.Helper()
	out, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func decodedSet(ds []Decoded) map[string]bool {
	set := map[string]bool{}
	for _, d := range ds {
		set[string(d.Payload)] = true
	}
	return set
}

func TestStreamerMatchesWholeTraceDecode(t *testing.T) {
	tr, _ := buildLongTrace(t, 800, 8, 3.0)

	// Reference: one-shot decode.
	rx := stagegraph.New(stagegraph.Config{Params: streamParams(), UseBEC: true})
	ref := map[string]bool{}
	for _, d := range rx.Decode(tr) {
		ref[string(d.Payload)] = true
	}
	if len(ref) == 0 {
		t.Fatal("reference decoded nothing")
	}

	// Streamed in fixed chunks.
	s := newStreamer(t)
	var got []Decoded
	chunk := 100_000
	samples := tr.Antennas[0]
	for off := 0; off < len(samples); off += chunk {
		end := off + chunk
		if end > len(samples) {
			end = len(samples)
		}
		got = append(got, mustFeed(t, s, samples[off:end])...)
	}
	got = append(got, mustFlush(t, s)...)

	gotSet := decodedSet(got)
	for pl := range ref {
		if !gotSet[pl] {
			t.Errorf("streamer missed a packet the one-shot decode found")
		}
	}
}

// TestStreamerBufferGrowsOnce feeds a trace in 65,536-sample chunks, the
// ingest path's chunk size, and checks that the sample buffer is allocated
// once at its steady-state size instead of growing chunk by chunk.
func TestStreamerBufferGrowsOnce(t *testing.T) {
	tr, _ := buildLongTrace(t, 804, 3, 2.5)
	s := newStreamer(t)
	samples := tr.Antennas[0]
	const chunk = 65_536
	grows, capacity := 0, cap(s.buf)
	for off := 0; off < len(samples); off += chunk {
		mustFeed(t, s, samples[off:min(off+chunk, len(samples))])
		if cap(s.buf) != capacity {
			grows++
			capacity = cap(s.buf)
		}
	}
	mustFlush(t, s)
	if passes := len(samples) / s.WindowSamples(); passes < 2 {
		t.Fatalf("trace of %d samples covers %d window passes; the test needs at least 2", len(samples), passes)
	}
	if grows > 1 {
		t.Errorf("buffer grew %d times over %d chunks, want at most once", grows, (len(samples)+chunk-1)/chunk)
	}
}

func TestStreamerRandomChunkSizes(t *testing.T) {
	tr, _ := buildLongTrace(t, 801, 6, 2.5)
	s := newStreamer(t)
	rng := rand.New(rand.NewSource(802))
	samples := tr.Antennas[0]
	var got []Decoded
	off := 0
	for off < len(samples) {
		n := 1 + rng.Intn(200_000)
		if off+n > len(samples) {
			n = len(samples) - off
		}
		got = append(got, mustFeed(t, s, samples[off:off+n])...)
		off += n
	}
	got = append(got, mustFlush(t, s)...)
	if len(got) == 0 {
		t.Fatal("nothing decoded from random-size chunks")
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, d := range got {
		k := string(d.Payload)
		if seen[k] {
			t.Errorf("duplicate emission of %x", d.Payload)
		}
		seen[k] = true
	}
}

func TestStreamerAbsoluteTimestamps(t *testing.T) {
	p := streamParams()
	rng := rand.New(rand.NewSource(803))
	b := trace.NewBuilder(p, 3.0, 1, rng)
	payload := []uint8("timestamped!!")
	truth := 2_000_000.5 // deep into the second processing window
	if err := b.AddPacket(0, 0, payload, truth, 12, 1000, nil); err != nil {
		t.Fatal(err)
	}
	tr, _ := b.Build()
	s := newStreamer(t)
	var got []Decoded
	for off := 0; off < tr.Len(); off += 250_000 {
		end := off + 250_000
		if end > tr.Len() {
			end = tr.Len()
		}
		got = append(got, mustFeed(t, s, tr.Antennas[0][off:end])...)
	}
	got = append(got, mustFlush(t, s)...)
	found := false
	for _, d := range got {
		if bytes.Equal(d.Payload, payload) {
			found = true
			if e := d.AbsStart - truth; e > 2 || e < -2 {
				t.Errorf("absolute start %.2f, want %.2f", d.AbsStart, truth)
			}
		}
	}
	if !found {
		t.Fatal("packet not decoded by the streamer")
	}
}

func TestStreamerPacketAcrossWindowBoundary(t *testing.T) {
	// Place a packet straddling the first window boundary exactly.
	p := streamParams()
	s := newStreamer(t)
	rng := rand.New(rand.NewSource(804))
	total := s.WindowSamples()*2 + s.OverlapSamples() + 1000
	b := trace.NewBuilder(p, float64(total)/p.SampleRate(), 1, rng)
	payload := []uint8("boundary rider")
	start := float64(s.WindowSamples()) - float64(p.PacketSamples(len(payload)))/2
	if err := b.AddPacket(0, 0, payload, start, 12, -2000, nil); err != nil {
		t.Fatal(err)
	}
	tr, _ := b.Build()
	var got []Decoded
	got = append(got, mustFeed(t, s, tr.Antennas[0])...)
	got = append(got, mustFlush(t, s)...)
	count := 0
	for _, d := range got {
		if bytes.Equal(d.Payload, payload) {
			count++
		}
	}
	if count != 1 {
		t.Errorf("boundary packet decoded %d times, want exactly 1", count)
	}
}

func TestStreamerEmptyAndFlushOnly(t *testing.T) {
	s := newStreamer(t)
	if out := mustFeed(t, s, nil); len(out) != 0 {
		t.Error("feeding nothing produced decodes")
	}
	if out := mustFlush(t, s); len(out) != 0 {
		t.Error("flushing an empty stream produced decodes")
	}
}

func TestNewStreamerValidation(t *testing.T) {
	if _, err := New(Config{Receiver: stagegraph.Config{Params: lora.Params{}}}); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestWindowFollowsReceiverPayloadBound pins the window and overlap New
// derives from Receiver.MaxPayloadLen to the values the streamer had when
// it took the bound as a field of its own, with the receiver's bound unset.
func TestWindowFollowsReceiverPayloadBound(t *testing.T) {
	for _, c := range []struct {
		p               lora.Params
		maxPayload      int
		window, overlap int
	}{
		{streamParams(), 0, 1017856, 258560},
		{streamParams(), 8, 362496, 94720},
		{streamParams(), 12, 428032, 111104},
		{lora.MustParams(7, 4, 125e3, 1), 8, 22656, 5920},
	} {
		s, err := New(Config{Receiver: stagegraph.Config{Params: c.p, MaxPayloadLen: c.maxPayload}})
		if err != nil {
			t.Fatal(err)
		}
		if s.WindowSamples() != c.window || s.OverlapSamples() != c.overlap {
			t.Errorf("SF %d OSF %d, MaxPayloadLen %d: window %d overlap %d, want %d and %d",
				c.p.SF, c.p.OSF, c.maxPayload, s.WindowSamples(), s.OverlapSamples(), c.window, c.overlap)
		}
	}
}

func TestStreamerTraceEvents(t *testing.T) {
	// A traced streaming run must export stream-layer events (at least the
	// final flush) alongside the packet traces, and every committed packet's
	// trace must carry its stream-absolute start.
	tr, _ := buildLongTrace(t, 806, 4, 2.0)
	var jsonl bytes.Buffer
	tracer := obs.New(obs.Options{Sink: &jsonl, RingSize: 32})
	s, err := New(Config{Receiver: stagegraph.Config{
		Params: streamParams(), UseBEC: true, Tracer: tracer}})
	if err != nil {
		t.Fatal(err)
	}

	samples := tr.Antennas[0]
	var got []Decoded
	chunk := 150_000
	for off := 0; off < len(samples); off += chunk {
		end := off + chunk
		if end > len(samples) {
			end = len(samples)
		}
		got = append(got, mustFeed(t, s, samples[off:end])...)
	}
	got = append(got, mustFlush(t, s)...)
	if len(got) == 0 {
		t.Fatal("nothing decoded")
	}

	for i, d := range got {
		if d.Trace == nil {
			t.Fatalf("decoded %d has no trace", i)
		}
		if d.Trace.AbsStart != d.AbsStart {
			t.Errorf("decoded %d: trace abs start %.1f, report start %.1f",
				i, d.Trace.AbsStart, d.AbsStart)
		}
	}

	counts, err := obs.ValidateJSONL(&jsonl)
	if err != nil {
		t.Fatalf("exported JSONL invalid: %v", err)
	}
	if counts[obs.TypeStream] == 0 {
		t.Errorf("no stream events exported: %v", counts)
	}
	if counts[obs.TypePacket] == 0 {
		t.Errorf("no packet traces exported: %v", counts)
	}
}
