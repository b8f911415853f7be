package lora

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"tnb/internal/dsp"
)

func TestRefChirpsUnitAmplitude(t *testing.T) {
	r := NewRefChirps(8)
	for i, v := range r.Up {
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatalf("upchirp sample %d has magnitude %g", i, cmplx.Abs(v))
		}
		if r.Down[i] != complex(real(v), -imag(v)) {
			t.Fatalf("downchirp is not the conjugate at %d", i)
		}
	}
}

func TestSymbolAtMatchesNativeRateReference(t *testing.T) {
	// Sampling the continuous-time shift-h chirp at the chip rate must
	// equal C[i]·e^{j2πhi/N} (the cyclic-shift property the demodulator
	// depends on).
	for _, sf := range []int{7, 8, 10} {
		n := 1 << sf
		bw := 125e3
		ref := NewRefChirps(sf)
		for _, h := range []int{0, 1, n / 3, n - 1} {
			for i := 0; i < n; i++ {
				got := SymbolAt(float64(i)/bw, h, n, bw)
				want := ref.Up[i] * cisTest(2*math.Pi*float64(h)*float64(i)/float64(n))
				if cmplx.Abs(got-want) > 1e-6 {
					t.Fatalf("SF%d h=%d i=%d: got %v want %v", sf, h, i, got, want)
				}
			}
		}
	}
}

func cisTest(th float64) complex128 {
	s, c := math.Sincos(th)
	return complex(c, s)
}

// modulateSymbol synthesizes one oversampled upchirp symbol with shift h
// into dst (length N·OSF), sampled at t = i/(bw·osf).
func modulateSymbol(dst []complex128, h int, p Params) {
	fs := p.SampleRate()
	for i := range dst {
		dst[i] = SymbolAt(float64(i)/fs, h, p.N(), p.Bandwidth)
	}
}

// signalVector is SignalVectorInto (DownSignalVectorInto when down) into
// fresh buffers.
func signalVector(d *Demodulator, rx []complex128, start, cfoCycles float64, symIndex int, down bool) []float64 {
	n := d.Params().N()
	y := make([]float64, n)
	if down {
		d.DownSignalVectorInto(y, make([]complex128, n), rx, start, cfoCycles, symIndex)
	} else {
		d.SignalVectorInto(y, make([]complex128, n), rx, start, cfoCycles, symIndex)
	}
	return y
}

// hardDemod is classic single-user LoRa demodulation: the strongest bin of
// the symbol's signal vector.
func hardDemod(d *Demodulator, rx []complex128, start, cfoCycles float64, symIndex int) int {
	y := signalVector(d, rx, start, cfoCycles, symIndex, false)
	best, bi := 0.0, 0
	for i, v := range y {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// dataStartSeconds is the time offset of a packet's first data symbol.
func dataStartSeconds(p Params) float64 {
	return (PreambleUpchirps + SyncSymbols + float64(DownchirpQuarters)/4) * p.SymbolDuration()
}

func TestModulateDemodAllShifts(t *testing.T) {
	p := MustParams(8, 4, 125e3, 8)
	d := NewDemodulator(p)
	buf := make([]complex128, p.SymbolSamples())
	for h := 0; h < p.N(); h += 7 {
		modulateSymbol(buf, h, p)
		if got := hardDemod(d, buf, 0, 0, 0); got != h {
			t.Fatalf("h=%d demodulated as %d", h, got)
		}
	}
}

func TestDemodWithIntegerTimingOffset(t *testing.T) {
	// A whole-packet render placed at an integer offset demodulates
	// correctly when the demod window is aligned to it.
	p := MustParams(8, 2, 125e3, 8)
	payload := []uint8{1, 2, 3, 4, 5, 6, 7, 8}
	shifts, _, err := Encode(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWaveform(p, shifts)
	sig := w.Render(0, 0, 0)
	d := NewDemodulator(p)
	dataStart := dataStartSeconds(p) * p.SampleRate()
	got := make([]int, len(shifts))
	for k := range shifts {
		got[k] = hardDemod(d, sig, dataStart+float64(k*p.SymbolSamples()), 0, k)
	}
	res := DecodeDefault(p, got)
	if !res.OK {
		t.Fatal("decode of rendered packet failed")
	}
	for i := range payload {
		if res.Payload[i] != payload[i] {
			t.Fatalf("payload byte %d mismatch", i)
		}
	}
}

func TestDemodWithFractionalOffsetAndCFO(t *testing.T) {
	// Render with a sub-sample offset and a CFO; demodulate with the true
	// parameters. All symbols must demodulate exactly.
	p := MustParams(8, 4, 125e3, 8)
	payload := []uint8{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6}
	shifts, _, err := Encode(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWaveform(p, shifts)
	frac := 0.37
	cfoHz := 3000.0 // within the paper's ±4.88 kHz
	sig := w.Render(frac, cfoHz, 1.1)

	d := NewDemodulator(p)
	cfoCycles := cfoHz * p.SymbolDuration()
	dataStart := dataStartSeconds(p)*p.SampleRate() + frac
	symOffset := int(math.Round(dataStartSeconds(p) / p.SymbolDuration()))
	errors := 0
	got := make([]int, len(shifts))
	for k := range shifts {
		got[k] = hardDemod(d, sig, dataStart+float64(k*p.SymbolSamples()), cfoCycles, symOffset+k)
		if got[k] != shifts[k] {
			errors++
		}
	}
	if errors > 0 {
		t.Fatalf("%d/%d symbol errors with known offset and CFO", errors, len(shifts))
	}
	res := DecodeDefault(p, got)
	if !res.OK {
		t.Fatal("decode failed")
	}
}

func TestPeakHeightDropsWithTimingError(t *testing.T) {
	// Paper Fig. 1(b): a misaligned window lowers the peak.
	p := MustParams(8, 4, 125e3, 8)
	d := NewDemodulator(p)
	buf := make([]complex128, 2*p.SymbolSamples())
	modulateSymbol(buf[:p.SymbolSamples()], 40, p)
	aligned := peakHeight(signalVector(d, buf, 0, 0, 0, false))
	quarterOff := peakHeight(signalVector(d, buf, float64(p.SymbolSamples())/4, 0, 0, false))
	if quarterOff > 0.7*aligned {
		t.Errorf("quarter-symbol offset peak %g vs aligned %g: not sensitive enough", quarterOff, aligned)
	}
}

func TestPeakHeightDropsWithResidualCFO(t *testing.T) {
	// Paper Fig. 1(c): 0.5 cycles of residual CFO severely lowers the peak.
	p := MustParams(8, 4, 125e3, 8)
	d := NewDemodulator(p)
	buf := make([]complex128, p.SymbolSamples())
	modulateSymbol(buf, 40, p)
	clean := peakHeight(signalVector(d, buf, 0, 0, 0, false))
	// Apply a half-bin CFO to the signal, demodulate without correction.
	cfoHz := 0.5 / p.SymbolDuration()
	shifted := make([]complex128, len(buf))
	for i := range buf {
		shifted[i] = buf[i] * cisTest(2*math.Pi*cfoHz*float64(i)/p.SampleRate())
	}
	residual := peakHeight(signalVector(d, shifted, 0, 0, 0, false))
	if residual > 0.55*clean {
		t.Errorf("0.5-cycle residual CFO peak %g vs clean %g", residual, clean)
	}
	// Correcting with the right CFO restores the peak.
	corrected := peakHeight(signalVector(d, shifted, 0, 0.5, 0, false))
	if corrected < 0.95*clean {
		t.Errorf("corrected peak %g vs clean %g", corrected, clean)
	}
}

func peakHeight(y []float64) float64 {
	var m float64
	for _, v := range y {
		if v > m {
			m = v
		}
	}
	return m
}

func TestWaveformDuration(t *testing.T) {
	p := MustParams(8, 1, 125e3, 8)
	shifts := make([]int, 10)
	w := NewWaveform(p, shifts)
	want := (8 + 2 + 2.25 + 10) * p.SymbolDuration()
	if math.Abs(w.Duration()-want) > 1e-12 {
		t.Errorf("Duration = %g, want %g", w.Duration(), want)
	}
	if w.At(-1) != 0 || w.At(w.Duration()+1) != 0 {
		t.Error("waveform should be 0 outside its duration")
	}
}

func TestWaveformUnitEnvelope(t *testing.T) {
	p := MustParams(7, 4, 125e3, 4)
	shifts, _, _ := Encode(p, []uint8{9, 9, 9})
	w := NewWaveform(p, shifts)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		tm := rng.Float64() * w.Duration() * 0.9999
		if v := w.At(tm); math.Abs(cmplx.Abs(v)-1) > 1e-9 {
			t.Fatalf("waveform magnitude %g at t=%g", cmplx.Abs(v), tm)
		}
	}
}

func TestDownchirpSectionDechirpsWithUpchirp(t *testing.T) {
	// The 2.25 downchirps must produce a clean peak when dechirped with
	// the base upchirp — the detector's downchirp path.
	p := MustParams(8, 4, 125e3, 8)
	shifts, _, _ := Encode(p, []uint8{1})
	w := NewWaveform(p, shifts)
	sig := w.Render(0, 0, 0)
	d := NewDemodulator(p)
	dcStart := float64((PreambleUpchirps + SyncSymbols) * p.SymbolSamples())
	y := signalVector(d, sig, dcStart, 0, 0, true)
	bi, best := 0, 0.0
	for i, v := range y {
		if v > best {
			best, bi = v, i
		}
	}
	if bi != 0 {
		t.Errorf("downchirp peak at bin %d, want 0", bi)
	}
	// And the peak must carry nearly all the energy.
	var total float64
	for _, v := range y {
		total += v
	}
	if best < 0.9*total {
		t.Errorf("downchirp peak carries %.2f of energy", best/total)
	}
}

func TestPreambleUpchirpPeaks(t *testing.T) {
	p := MustParams(8, 4, 125e3, 8)
	shifts, _, _ := Encode(p, []uint8{1, 2, 3})
	w := NewWaveform(p, shifts)
	sig := w.Render(0, 0, 0)
	d := NewDemodulator(p)
	for k := 0; k < PreambleUpchirps; k++ {
		h := hardDemod(d, sig, float64(k*p.SymbolSamples()), 0, k)
		if h != 0 {
			t.Errorf("preamble symbol %d demodulates to %d", k, h)
		}
	}
	// Sync symbols at shifts 8 and 16.
	if h := hardDemod(d, sig, float64(PreambleUpchirps*p.SymbolSamples()), 0, 0); h != SyncShift1 {
		t.Errorf("sync 1 = %d, want %d", h, SyncShift1)
	}
	if h := hardDemod(d, sig, float64((PreambleUpchirps+1)*p.SymbolSamples()), 0, 0); h != SyncShift2 {
		t.Errorf("sync 2 = %d, want %d", h, SyncShift2)
	}
}

func BenchmarkEncode16Bytes(b *testing.B) {
	p := MustParams(8, 4, 125e3, 8)
	payload := make([]uint8, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Encode(p, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignalVectorSF8(b *testing.B) {
	p := MustParams(8, 4, 125e3, 8)
	d := NewDemodulator(p)
	sig := make([]complex128, 2*p.SymbolSamples())
	modulateSymbol(sig[:p.SymbolSamples()], 100, p)
	y := make([]float64, p.N())
	buf := make([]complex128, p.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SignalVectorInto(y, buf, sig, 0.25, 0.3, i&7)
	}
}

// dechirpLegacyInto is the pre-kernel-layer 3-pass dechirp (Resample →
// MulConj → per-sample Cis rotation), kept as the reference the fused
// kernel is measured and property-tested against.
func dechirpLegacyInto(d *Demodulator, buf, rx []complex128, start, cfoCycles float64, symIndex int, down bool) {
	n := d.p.N()
	dsp.Resample(buf, rx, start, float64(d.p.OSF))
	ref := d.ref.Up
	if down {
		ref = d.ref.Down
	}
	dsp.MulConj(buf, buf, ref)
	if cfoCycles != 0 {
		base := float64(symIndex) * cfoCycles
		for i := 0; i < n; i++ {
			ph := -2 * math.Pi * (base + cfoCycles*float64(i)/float64(n))
			buf[i] *= dsp.Cis(ph)
		}
	}
}

// TestDechirpIntoMatchesLegacy is the modem-level property test: across
// random fractional starts, CFOs and symbol indices (and both chirp
// directions), the fused DechirpInto path matches the legacy 3-pass path
// within 1e-9 relative error.
func TestDechirpIntoMatchesLegacy(t *testing.T) {
	p := MustParams(8, 4, 125e3, 8)
	d := NewDemodulator(p)
	rng := rand.New(rand.NewSource(41))
	rx := make([]complex128, 4*p.SymbolSamples())
	for i := range rx {
		rx[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	scale := 0.0
	for _, v := range rx {
		if a := cmplx.Abs(v); a > scale {
			scale = a
		}
	}
	n := p.N()
	got := make([]complex128, n)
	want := make([]complex128, n)
	for trial := 0; trial < 200; trial++ {
		start := rng.Float64()*float64(3*p.SymbolSamples()) - 100
		cfo := 0.0
		if trial%4 != 0 {
			cfo = rng.Float64()*9 - 4.5
		}
		symIdx := rng.Intn(40)
		down := trial%2 == 1
		if down {
			d.DechirpDownInto(got, rx, start, cfo, symIdx)
		} else {
			d.DechirpInto(got, rx, start, cfo, symIdx)
		}
		dechirpLegacyInto(d, want, rx, start, cfo, symIdx, down)
		for i := range got {
			if e := cmplx.Abs(got[i] - want[i]); e > 1e-9*scale {
				t.Fatalf("trial %d (start=%g cfo=%g sym=%d down=%t) sample %d: fused %v vs legacy %v (err %g)",
					trial, start, cfo, symIdx, down, i, got[i], want[i], e)
			}
		}
	}
}

// BenchmarkDechirp contrasts the fused single-pass kernel with the legacy
// 3-pass path on one SF8 symbol, for the two hot shapes: the fractional
// CFO-corrected dechirp of the sync search and sigcalc, and the
// integer-aligned CFO-free dechirp of the detection scan.
func BenchmarkDechirp(b *testing.B) {
	p := MustParams(8, 4, 125e3, 8)
	d := NewDemodulator(p)
	rng := rand.New(rand.NewSource(42))
	rx := make([]complex128, 4*p.SymbolSamples())
	for i := range rx {
		rx[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	buf := make([]complex128, p.N())
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.DechirpInto(buf, rx, 1000.37, -2.25, i&7)
		}
	})
	b.Run("fused_scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.DechirpInto(buf, rx, float64(p.SymbolSamples()), 0, 0)
		}
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dechirpLegacyInto(d, buf, rx, 1000.37, -2.25, i&7, false)
		}
	})
	b.Run("legacy_scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dechirpLegacyInto(d, buf, rx, float64(p.SymbolSamples()), 0, 0, false)
		}
	})
}

// TestIntoVariantsMatchAllocatingForms checks that the Into forms, called
// repeatedly on the same dirty scratch, match a call on fresh buffers.
func TestIntoVariantsMatchAllocatingForms(t *testing.T) {
	p := MustParams(8, 4, 125e3, 8)
	d := NewDemodulator(p)
	rng := rand.New(rand.NewSource(5))
	rx := make([]complex128, 3*p.SymbolSamples())
	for i := range rx {
		rx[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	n := p.N()
	y := make([]float64, n)
	cbuf := make([]complex128, n)
	for _, cfo := range []float64{0, -2.25} {
		start, symIdx := 17.5, 3

		want := signalVector(d, rx, start, cfo, symIdx, true)
		d.DownSignalVectorInto(y, cbuf, rx, start, cfo, symIdx)
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("cfo=%g: DownSignalVectorInto[%d] = %v, want %v", cfo, i, y[i], want[i])
			}
		}
	}
}

// TestSumSignalVectorIntoMatchesPerAntennaSum pins the antenna-summing
// helper bit-equal to zeroing and adding each antenna's vector in order.
func TestSumSignalVectorIntoMatchesPerAntennaSum(t *testing.T) {
	p := MustParams(8, 4, 125e3, 8)
	d := NewDemodulator(p)
	rng := rand.New(rand.NewSource(6))
	ants := make([][]complex128, 3)
	for a := range ants {
		ants[a] = make([]complex128, 3*p.SymbolSamples())
		for i := range ants[a] {
			ants[a][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	n := p.N()
	acc := make([]float64, n)
	y := make([]float64, n)
	buf := make([]complex128, n)
	for _, down := range []bool{false, true} {
		for _, cfo := range []float64{0, 1.3} {
			for na := 1; na <= len(ants); na++ {
				want := make([]float64, n)
				for _, ant := range ants[:na] {
					v := signalVector(d, ant, 21.25, cfo, 4, down)
					for i := range want {
						want[i] += v[i]
					}
				}
				for i := range acc {
					acc[i] = -1 // stale contents must not leak in
				}
				d.SumSignalVectorInto(acc, y, buf, ants[:na], 21.25, cfo, 4, down)
				for i := range acc {
					if acc[i] != want[i] {
						t.Fatalf("down=%v cfo=%g antennas=%d: bin %d = %v, want %v", down, cfo, na, i, acc[i], want[i])
					}
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		d.SumSignalVectorInto(acc, y, buf, ants, 21.25, 1.3, 4, false)
	}); allocs != 0 {
		t.Errorf("SumSignalVectorInto allocates %v per call", allocs)
	}
}
