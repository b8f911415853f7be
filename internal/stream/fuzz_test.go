package stream

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"tnb/internal/lora"
	"tnb/internal/stagegraph"
)

// FuzzStreamFeed feeds arbitrary sample chunks — including NaN/Inf bit
// patterns, which the int16 gateway wire cannot produce but a direct API
// caller can — through Feed and Flush. Properties: no panic, the buffer
// ceiling is enforced with the typed OverflowError, non-finite input is
// sanitized (counted, never decoded into garbage), and any decode that
// does come out respects the configured payload bound.
func FuzzStreamFeed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	// One NaN/Inf pair to seed the sanitizer path.
	nan := make([]byte, 16)
	binary.LittleEndian.PutUint64(nan[0:8], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(nan[8:16], math.Float64bits(math.Inf(1)))
	f.Add(nan)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Small radio parameters keep each iteration cheap: SF 7 at OSF 1
		// with an 8-byte payload bound gives a window of about 22k
		// samples, so Flush always runs a full decode pass.
		s, err := New(Config{
			Receiver: stagegraph.Config{Params: lora.MustParams(7, 4, 125e3, 1), Workers: 1, MaxPayloadLen: 8},
		})
		if err != nil {
			t.Fatal(err)
		}

		// Interpret the fuzz bytes as raw float64 bit patterns — the widest
		// possible input domain, NaN and ±Inf included.
		n := len(data) / 16
		if n > 8192 {
			n = 8192
		}
		samples := make([]complex128, n)
		poison := 0
		for i := range samples {
			re := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
			samples[i] = complex(re, im)
			if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
				poison++
			}
		}

		decoded, err := s.Feed(samples)
		if err != nil {
			var oe *OverflowError
			if !errors.As(err, &oe) {
				t.Fatalf("Feed error is not an OverflowError: %v", err)
			}
			return
		}
		flushed, err := s.Flush()
		if err != nil {
			t.Fatalf("Flush: %v", err)
		}
		for _, d := range append(decoded, flushed...) {
			if len(d.Payload) > 8 {
				t.Fatalf("decoded payload of %d bytes past the 8-byte bound", len(d.Payload))
			}
		}
		// Whatever the decoder did, the poisoned samples must have been
		// zeroed in the internal buffer before any arithmetic saw them.
		if poison > 0 && countNonFinite(samples) == 0 {
			t.Fatal("input slice was sanitized in place; Feed must copy first")
		}
	})
}

// countNonFinite reports how many entries are NaN or ±Inf in either part.
func countNonFinite(v []complex128) int {
	n := 0
	for _, s := range v {
		re, im := real(s), imag(s)
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			n++
		}
	}
	return n
}
