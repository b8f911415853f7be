package lora

import (
	"math"

	"tnb/internal/dsp"
)

// RefChirps holds the native-rate (one sample per chip) reference chirps
// used for dechirping at the receiver. Build once per Params with
// NewRefChirps; safe for concurrent use.
type RefChirps struct {
	N    int
	Up   []complex128 // base upchirp C
	Down []complex128 // downchirp C' = conj(C)
}

// NewRefChirps precomputes the native-rate base chirps for n = 2^SF chips.
func NewRefChirps(sf int) *RefChirps {
	n := 1 << sf
	r := &RefChirps{N: n, Up: make([]complex128, n), Down: make([]complex128, n)}
	for i := 0; i < n; i++ {
		// Native-rate sampled base upchirp: phase π(i²/N − i). Frequency
		// wrap is implicit through aliasing at the chip rate.
		ph := math.Pi * (float64(i)*float64(i)/float64(n) - float64(i))
		r.Up[i] = dsp.Cis(ph)
		r.Down[i] = complex(real(r.Up[i]), -imag(r.Up[i]))
	}
	return r
}

// chirpPhase returns the continuous-time phase (radians) of an upchirp with
// cyclic shift h at time t seconds into the symbol, for chip count n and
// bandwidth bw. The instantaneous frequency starts at -bw/2 + h·bw/n, rises
// at bw/T, and folds down by bw at t_fold = (n-h)/bw with continuous phase.
func chirpPhase(t float64, h int, n int, bw float64) float64 {
	T := float64(n) / bw
	f0 := -bw/2 + float64(h)*bw/float64(n)
	ph := 2 * math.Pi * (f0*t + bw/(2*T)*t*t)
	tFold := float64(n-h) / bw
	if t >= tFold {
		ph -= 2 * math.Pi * bw * (t - tFold)
	}
	return ph
}

// SymbolAt evaluates the transmitted upchirp symbol with shift h at time t
// seconds into the symbol (0 ≤ t < T). Used by the waveform synthesizer,
// which samples packets on the receiver grid at arbitrary fractional
// offsets.
func SymbolAt(t float64, h int, n int, bw float64) complex128 {
	return dsp.Cis(chirpPhase(t, h, n, bw))
}

// DownchirpAt evaluates the base downchirp at time t seconds into the
// symbol: the conjugate of the base upchirp.
func DownchirpAt(t float64, n int, bw float64) complex128 {
	v := dsp.Cis(chirpPhase(t, 0, n, bw))
	return complex(real(v), -imag(v))
}
