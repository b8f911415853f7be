package lora

import (
	"math"

	"tnb/internal/dsp"
)

// Waveform synthesis. A packet is a continuous-phase function of time:
// 8 preamble upchirps, 2 sync symbols, 2.25 downchirps, then the data
// symbols. The synthesizer evaluates the waveform at arbitrary real times,
// so fractional start offsets and arbitrary receiver grids come for free.

// Waveform represents a packet's baseband signal as a function of time.
type Waveform struct {
	p      Params
	shifts []int // data symbol shifts
	T      float64
	n      int
	bw     float64
}

// NewWaveform builds the waveform for a packet with the given data-symbol
// shifts (as produced by Encode).
func NewWaveform(p Params, shifts []int) *Waveform {
	return &Waveform{p: p, shifts: shifts, T: p.SymbolDuration(), n: p.N(), bw: p.Bandwidth}
}

// Duration returns the total packet duration in seconds.
func (w *Waveform) Duration() float64 {
	return (PreambleUpchirps + SyncSymbols + float64(DownchirpQuarters)/4 + float64(len(w.shifts))) * w.T
}

// At evaluates the baseband waveform at time t seconds from the packet
// start. Times outside [0, Duration) return 0.
func (w *Waveform) At(t float64) complex128 {
	if t < 0 {
		return 0
	}
	k := int(t / w.T)
	u := t - float64(k)*w.T

	switch {
	case k < PreambleUpchirps:
		return SymbolAt(u, 0, w.n, w.bw)
	case k == PreambleUpchirps:
		return SymbolAt(u, SyncShift1, w.n, w.bw)
	case k == PreambleUpchirps+1:
		return SymbolAt(u, SyncShift2, w.n, w.bw)
	}
	// Downchirp section: 2.25 symbols after the sync symbols.
	dcStart := float64(PreambleUpchirps+SyncSymbols) * w.T
	dcEnd := dcStart + float64(DownchirpQuarters)/4*w.T
	if t < dcEnd {
		// Phase continues across the repeated downchirps; each full
		// downchirp restarts its own phase (chirps are cyclic).
		td := t - dcStart
		for td >= w.T {
			td -= w.T
		}
		return DownchirpAt(td, w.n, w.bw)
	}
	// Data section.
	di := int((t - dcEnd) / w.T)
	if di >= len(w.shifts) {
		return 0
	}
	ud := t - dcEnd - float64(di)*w.T
	return SymbolAt(ud, w.shifts[di], w.n, w.bw)
}

// Render samples the waveform onto a receiver grid: sample i (i ≥ 0) is
// taken at t = (i - frac)/fs where fs is the receiver rate and
// frac ∈ [0, 1) is the sub-sample start offset. The returned slice covers
// the whole packet (length ⌈(Duration·fs)+frac⌉+1).
func (w *Waveform) Render(frac float64, cfoHz float64, phase0 float64) []complex128 {
	fs := w.p.SampleRate()
	total := int(math.Ceil(w.Duration()*fs+frac)) + 1
	out := make([]complex128, total)
	for i := range out {
		t := (float64(i) - frac) / fs
		v := w.At(t)
		if v == 0 {
			continue
		}
		out[i] = v * dsp.Cis(phase0+2*math.Pi*cfoHz*t)
	}
	return out
}

// Demodulator computes signal vectors: dechirped, CFO-corrected, decimated
// N-point spectra of received symbols (paper §3). One Demodulator serves a
// fixed parameter set and may be shared across goroutines.
type Demodulator struct {
	p    Params
	ref  *RefChirps
	plan *dsp.FFTPlan
}

// NewDemodulator builds a demodulator for the parameter set.
func NewDemodulator(p Params) *Demodulator {
	return &Demodulator{p: p, ref: NewRefChirps(p.SF), plan: dsp.MustPlan(p.N())}
}

// Params returns the demodulator's parameter set.
func (d *Demodulator) Params() Params { return d.p }

// DechirpInto extracts the symbol starting at the (fractional) receiver
// sample position start from rx, dechirps it against the base downchirp,
// applies the CFO correction for cfoCycles (CFO expressed in cycles per
// symbol, paper §5.3.1) with the phase reference at symIndex symbols from
// the packet start, and writes the N-point dechirped vector into buf.
//
// Using the absolute symbol index keeps the CFO correction phase-continuous
// across the packet, which the synchronization search (paper §7, Q function)
// relies on.
// The CFO correction multiplies sample i by e^{-2πi(symIndex·cfo + cfo·i/N)};
// cfoPhases maps that to the Rotator parameters of the fused kernel.
func (d *Demodulator) cfoPhases(cfoCycles float64, symIndex int) (phase0, dphase float64) {
	if cfoCycles == 0 {
		return 0, 0
	}
	return -2 * math.Pi * float64(symIndex) * cfoCycles,
		-2 * math.Pi * cfoCycles / float64(d.p.N())
}

func (d *Demodulator) DechirpInto(buf []complex128, rx []complex128, start float64, cfoCycles float64, symIndex int) {
	phase0, dphase := d.cfoPhases(cfoCycles, symIndex)
	dsp.DechirpFused(buf, rx, start, float64(d.p.OSF), d.ref.Up, phase0, dphase)
}

// DechirpDownInto is DechirpInto against the base upchirp, used to locate
// the preamble's downchirps. A CFO tone survives dechirping unchanged
// regardless of the chirp direction, so the correction sign matches
// DechirpInto.
func (d *Demodulator) DechirpDownInto(buf []complex128, rx []complex128, start float64, cfoCycles float64, symIndex int) {
	phase0, dphase := d.cfoPhases(cfoCycles, symIndex)
	dsp.DechirpFused(buf, rx, start, float64(d.p.OSF), d.ref.Down, phase0, dphase)
}

// SignalVectorInto computes the signal vector Y = |FFT(symbol ⊙ C')|² into
// y (length N), reusing buf (length N) as scratch. The spectrum is never
// materialized: ForwardMag squares the final butterfly stage in registers.
func (d *Demodulator) SignalVectorInto(y []float64, buf []complex128, rx []complex128, start float64, cfoCycles float64, symIndex int) {
	d.DechirpInto(buf, rx, start, cfoCycles, symIndex)
	d.plan.ForwardMag(y, buf)
}

// ForwardMagBatch computes y[r·N:(r+1)·N] = |FFT(xb[r·N:(r+1)·N])|² for rows
// stacked dechirped symbols in one shared twiddle sweep — bit-identical per
// row to the ForwardMag call inside SignalVectorInto (dsp.ForwardMagBatch's
// contract). xb is consumed as scratch. Callers dechirp each row themselves
// (DechirpInto), which keeps fractional starts and per-symbol CFO phases
// exactly as in the unbatched path.
func (d *Demodulator) ForwardMagBatch(y []float64, xb []complex128, rows int) {
	d.plan.ForwardMagBatch(y, xb, rows)
}

// DownSignalVectorInto computes |FFT(symbol ⊙ C)|² into y (length N),
// reusing buf (length N) as scratch — the downchirp counterpart of
// SignalVectorInto, used by the detector's hot path.
func (d *Demodulator) DownSignalVectorInto(y []float64, buf []complex128, rx []complex128, start float64, cfoCycles float64, symIndex int) {
	d.DechirpDownInto(buf, rx, start, cfoCycles, symIndex)
	d.plan.ForwardMag(y, buf)
}

// SumSignalVectorInto writes into acc (length N) the signal vector of the
// symbol at start summed over antennas: acc is zeroed, then each antenna's
// SignalVectorInto (DownSignalVectorInto when down) is added in antenna
// order. y and buf (length N) are scratch.
func (d *Demodulator) SumSignalVectorInto(acc, y []float64, buf []complex128, antennas [][]complex128, start float64, cfoCycles float64, symIndex int, down bool) {
	clear(acc)
	for _, ant := range antennas {
		if down {
			d.DownSignalVectorInto(y, buf, ant, start, cfoCycles, symIndex)
		} else {
			d.SignalVectorInto(y, buf, ant, start, cfoCycles, symIndex)
		}
		for i := range acc {
			acc[i] += y[i]
		}
	}
}
