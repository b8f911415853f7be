package stream

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"tnb/internal/faultinject"
	"tnb/internal/metrics"
	"tnb/internal/stagegraph"
)

// TestFeedBufferCeiling checks the hard ceiling: an oversized chunk is
// rejected with a typed *OverflowError, the buffer is untouched, and the
// streamer keeps working afterwards.
func TestFeedBufferCeiling(t *testing.T) {
	reg := metrics.NewRegistry()
	met := NewMetrics(reg)
	s, err := New(Config{
		Receiver: stagegraph.Config{Params: streamParams(), UseBEC: true},
		Metrics:  met,
	})
	if err != nil {
		t.Fatal(err)
	}
	limit := s.MaxBufferSamples()
	if limit != 4*(s.WindowSamples()+s.OverlapSamples()) {
		t.Fatalf("default ceiling = %d, want 4×(window+overlap) = %d",
			limit, 4*(s.WindowSamples()+s.OverlapSamples()))
	}

	if _, err := s.Feed(make([]complex128, 1000)); err != nil {
		t.Fatal(err)
	}
	_, err = s.Feed(make([]complex128, limit))
	var oe *OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("oversized Feed error = %v, want *OverflowError", err)
	}
	if oe.Buffered != 1000 || oe.Limit != limit {
		t.Errorf("overflow error fields = %+v", oe)
	}
	if v := met.Overflows.Value(); v != 1 {
		t.Errorf("overflow counter = %d, want 1", v)
	}
	if v := met.BufferSamples.Value(); v != 0 {
		// setBuffer only runs on success; the gauge still shows the state
		// before the rejected chunk (1000 was never committed to it
		// because the first Feed ran no window pass). Re-feed and check
		// the streamer still works.
		t.Logf("buffer gauge after rejection: %d", v)
	}
	if _, err := s.Feed(make([]complex128, 1000)); err != nil {
		t.Fatalf("streamer wedged after overflow rejection: %v", err)
	}
}

func TestNewRejectsTinyCeiling(t *testing.T) {
	_, err := New(Config{
		Receiver:         stagegraph.Config{Params: streamParams()},
		MaxBufferSamples: 10,
	})
	if err == nil {
		t.Fatal("ceiling below window+overlap accepted")
	}
}

func TestNegativeCeilingDisables(t *testing.T) {
	s, err := New(Config{
		Receiver:         stagegraph.Config{Params: streamParams()},
		MaxBufferSamples: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxBufferSamples() != 0 {
		t.Errorf("ceiling = %d, want 0 (disabled)", s.MaxBufferSamples())
	}
}

// TestFeedSanitizesNonFinite poisons a clean packet trace with NaN/Inf
// samples and checks they are zeroed (counted in the metric) without
// panicking the receiver, and that packets clear of the poison still decode.
func TestFeedSanitizesNonFinite(t *testing.T) {
	tr, recs := buildLongTrace(t, 777, 3, 2.0)
	sc := faultinject.Scenario{Kind: faultinject.IQNaN, Seed: 1, Rate: 0.01}
	samples := sc.Samples(tr.Antennas[0])

	reg := metrics.NewRegistry()
	met := NewMetrics(reg)
	s, err := New(Config{
		Receiver: stagegraph.Config{Params: streamParams(), UseBEC: true},
		Metrics:  met,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []Decoded
	for off := 0; off < len(samples); off += 100_000 {
		end := off + 100_000
		if end > len(samples) {
			end = len(samples)
		}
		out, err := s.Feed(samples[off:end])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, out...)
	}
	out, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, out...)

	if met.NonFinite.Value() == 0 {
		t.Error("no non-finite samples counted despite IQNaN fault")
	}
	// The caller's slice must keep its poison (sanitization copies).
	dirty := false
	for _, v := range samples {
		if math.IsNaN(real(v)) || math.IsNaN(imag(v)) ||
			math.IsInf(real(v), 0) || math.IsInf(imag(v), 0) {
			dirty = true
			break
		}
	}
	if !dirty {
		t.Error("input slice was sanitized in place")
	}
	// At 1% poison density most packets lose symbols, but the stream as a
	// whole must keep decoding: every decode that does come out is real.
	for _, d := range got {
		matched := false
		for _, rec := range recs {
			if bytes.Equal(d.Payload, rec.Payload) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("bogus decode from poisoned stream: %x", d.Payload)
		}
	}
}

// TestFeedCleanStreamNoSanitizeCost checks a finite stream counts nothing.
func TestFeedCleanStreamNoSanitizeCost(t *testing.T) {
	reg := metrics.NewRegistry()
	met := NewMetrics(reg)
	s, err := New(Config{
		Receiver: stagegraph.Config{Params: streamParams()},
		Metrics:  met,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	chunk := make([]complex128, 50_000)
	for i := range chunk {
		chunk[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if _, err := s.Feed(chunk); err != nil {
		t.Fatal(err)
	}
	if v := met.NonFinite.Value(); v != 0 {
		t.Errorf("clean stream counted %d non-finite samples", v)
	}
}

// TestZeroNonFiniteMatchesClassify holds zeroNonFinite's v−v test to the
// IsNaN/IsInf classification of each part: NaN and ±Inf in either part or
// both, next to ±0, subnormals, MaxFloat64 and random finite values.
func TestZeroNonFiniteMatchesClassify(t *testing.T) {
	parts := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, math.MaxFloat64,
		-math.MaxFloat64, 1, -2.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 32; i++ {
		parts = append(parts, rng.NormFloat64()*math.Pow(2, float64(rng.Intn(2000)-1000)))
	}
	bad := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }
	var in []complex128
	for _, re := range parts {
		for _, im := range parts {
			in = append(in, complex(re, im))
		}
	}
	got := append([]complex128(nil), in...)
	hit := zeroNonFinite(got)
	want := 0
	for i, v := range in {
		if bad(real(v)) || bad(imag(v)) {
			want++
			if got[i] != 0 {
				t.Errorf("%v: kept as %v, want 0", v, got[i])
			}
		} else if math.Float64bits(real(got[i])) != math.Float64bits(real(v)) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(v)) {
			t.Errorf("%v: changed to %v", v, got[i])
		}
	}
	if hit != want {
		t.Errorf("counted %d non-finite samples, want %d", hit, want)
	}
}
