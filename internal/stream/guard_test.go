package stream

import (
	"errors"
	"sync"
	"testing"

	"tnb/internal/metrics"
	"tnb/internal/stagegraph"
)

// TestReentrantFeedRejected drives Feed from the receiver's own callback
// path by hammering the streamer from two goroutines and checking that
// overlapping calls get ErrConcurrentUse while the buffer stays coherent
// (total samples accepted == samples fed by callers that saw no error).
func TestReentrantFeedRejected(t *testing.T) {
	s := newStreamer(t)
	chunk := make([]complex128, 50_000)

	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, rejected := 0, 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := s.Feed(chunk)
				mu.Lock()
				switch {
				case err == nil:
					accepted++
				case errors.Is(err, ErrConcurrentUse):
					rejected++
				default:
					t.Errorf("unexpected error: %v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if accepted == 0 {
		t.Error("no Feed call succeeded")
	}
	if accepted+rejected != 200 {
		t.Errorf("accepted %d + rejected %d != 200", accepted, rejected)
	}
	// The streamer must still be usable afterwards.
	if _, err := s.Flush(); err != nil {
		t.Errorf("Flush after contention: %v", err)
	}
}

func TestStreamMetricsRecorded(t *testing.T) {
	reg := metrics.NewRegistry()
	met := NewMetrics(reg)
	s, err := New(Config{
		Receiver: stagegraph.Config{Params: streamParams(), UseBEC: true},
		Metrics:  met,
	})
	if err != nil {
		t.Fatal(err)
	}

	tr, _ := buildLongTrace(t, 810, 4, 2.5)
	mustFeed(t, s, tr.Antennas[0])
	if met.WindowPasses.Value() == 0 {
		t.Error("no window passes recorded")
	}
	if met.BufferSamples.Value() <= 0 {
		t.Error("buffer gauge not set after Feed")
	}
	mustFlush(t, s)
	if met.Flushes.Value() != 1 {
		t.Errorf("flushes = %d, want 1", met.Flushes.Value())
	}
	if met.BufferSamples.Value() != 0 {
		t.Errorf("buffer gauge = %d after Flush, want 0", met.BufferSamples.Value())
	}
}
