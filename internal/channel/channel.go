// Package channel models the propagation impairments used in the paper's
// evaluation: AWGN at a per-node SNR, carrier frequency offset (applied at
// waveform synthesis), and the LTE ETU multipath profile with Rayleigh
// fading taps (Jakes Doppler spectrum), as used in paper §8.5.
package channel

import (
	"math"
	"math/rand"

	"tnb/internal/dsp"
)

// Model transforms a transmitted baseband signal into its received form for
// one antenna. Implementations must be deterministic given their
// construction-time RNG.
type Model interface {
	// Apply convolves/filters the transmitted samples and returns the
	// received samples (possibly longer than the input when the model has
	// delay spread). sampleRate is in Hz; startSample is the absolute
	// receiver sample index of tx[0], letting time-varying channels
	// evolve coherently across packets.
	Apply(tx []complex128, sampleRate float64, startSample int) []complex128
}

// Flat is a time-invariant single-tap channel with the given complex gain.
type Flat struct{ Gain complex128 }

// Apply scales the signal by the flat gain.
func (f Flat) Apply(tx []complex128, _ float64, _ int) []complex128 {
	out := make([]complex128, len(tx))
	for i, v := range tx {
		out[i] = v * f.Gain
	}
	return out
}

// Tap describes one multipath component.
type Tap struct {
	DelayNs float64 // excess delay in nanoseconds
	PowerDB float64 // average relative power in dB
}

// ETUProfile is the LTE Extended Typical Urban tap set (3GPP TS 36.101
// Annex B.2). Delay spread 5 µs, as quoted in paper §8.5.
var ETUProfile = []Tap{
	{0, -1}, {50, -1}, {120, -1}, {200, 0}, {230, 0},
	{500, 0}, {1600, -3}, {2300, -5}, {5000, -7},
}

// jakesOscillators is the number of sinusoids in the sum-of-sinusoids
// Rayleigh fader. 16 gives a good approximation of the Jakes spectrum.
const jakesOscillators = 16

// fadingTap is one Rayleigh-faded path: a sum-of-sinusoids process with the
// classic Doppler spectrum, scaled to the tap's average power.
type fadingTap struct {
	delaySamples float64
	amp          float64 // sqrt(average linear power)
	freqs        []float64
	phasesI      []float64
	phasesQ      []float64
}

// gainAt returns the complex tap gain at time t seconds. The I and Q
// components are independent sums of cosines with Doppler-distributed
// frequencies, giving a Rayleigh-fading envelope.
func (ft *fadingTap) gainAt(t float64) complex128 {
	var re, im float64
	for k := range ft.freqs {
		re += math.Cos(2*math.Pi*ft.freqs[k]*t + ft.phasesI[k])
		im += math.Cos(2*math.Pi*ft.freqs[k]*t + ft.phasesQ[k])
	}
	norm := ft.amp / math.Sqrt(float64(len(ft.freqs)))
	return complex(norm*re, norm*im)
}

// Fading is a tapped-delay-line channel with independently Rayleigh-fading
// taps. The zero value is unusable; construct with NewFading.
type Fading struct {
	taps      []*fadingTap
	dopplerHz float64
}

// NewFading builds a fading channel from a tap profile, maximum Doppler
// shift and an RNG for the fading process. Tap powers are normalized so the
// average channel power gain is 1, keeping SNR definitions consistent with
// the flat channel.
func NewFading(profile []Tap, dopplerHz float64, sampleRate float64, rng *rand.Rand) *Fading {
	var totalLin float64
	for _, tp := range profile {
		totalLin += dsp.DBToLinear(tp.PowerDB)
	}
	f := &Fading{dopplerHz: dopplerHz}
	for _, tp := range profile {
		ft := &fadingTap{
			delaySamples: tp.DelayNs * 1e-9 * sampleRate,
			amp:          math.Sqrt(dsp.DBToLinear(tp.PowerDB) / totalLin),
			freqs:        make([]float64, jakesOscillators),
			phasesI:      make([]float64, jakesOscillators),
			phasesQ:      make([]float64, jakesOscillators),
		}
		for k := 0; k < jakesOscillators; k++ {
			// Doppler frequencies f_d·cos(α) with α uniform — the Jakes
			// arrival-angle model.
			alpha := 2 * math.Pi * rng.Float64()
			ft.freqs[k] = dopplerHz * math.Cos(alpha)
			ft.phasesI[k] = 2 * math.Pi * rng.Float64()
			ft.phasesQ[k] = 2 * math.Pi * rng.Float64()
		}
		f.taps = append(f.taps, ft)
	}
	return f
}

// Apply runs the tapped delay line. Fractional tap delays use linear
// interpolation; tap gains are updated once per symbol-scale granularity
// (every 64 samples) since the Doppler rate (≤ tens of Hz) is far below the
// sample rate.
func (f *Fading) Apply(tx []complex128, sampleRate float64, startSample int) []complex128 {
	maxDelay := 0.0
	for _, tp := range f.taps {
		if tp.delaySamples > maxDelay {
			maxDelay = tp.delaySamples
		}
	}
	out := make([]complex128, len(tx)+int(math.Ceil(maxDelay))+1)
	const gainUpdate = 64
	for _, tp := range f.taps {
		di := int(tp.delaySamples)
		frac := tp.delaySamples - float64(di)
		cf := complex(frac, 0)
		cf1 := complex(1-frac, 0)
		var g complex128
		for i, v := range tx {
			if i%gainUpdate == 0 {
				t := float64(startSample+i) / sampleRate
				g = tp.gainAt(t)
			}
			w := v * g
			out[i+di] += w * cf1
			if frac > 0 {
				out[i+di+1] += w * cf
			}
		}
	}
	return out
}
