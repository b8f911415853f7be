package baseline

import (
	"math"
	"math/rand"
	"sort"

	"tnb/internal/detect"
	"tnb/internal/dsp"
	"tnb/internal/lora"
	"tnb/internal/peaks"
	"tnb/internal/stats"
	"tnb/internal/trace"
)

// CIC implements the core idea of Concurrent Interference Cancellation
// (Shahid et al., SIGCOMM'21): for every symbol of the target packet, the
// window is cut into sub-windows at the symbol boundaries of the
// interfering packets. The target's chirp keeps a single frequency across
// all sub-windows, while each interferer changes symbols at its boundary;
// intersecting the peak sets of the sub-window spectra therefore cancels
// the interference and leaves the target peak.
type CIC struct {
	cfg      Config
	detector *detect.Detector
	demod    *lora.Demodulator
	ref      *lora.RefChirps
	plan     *dsp.FFTPlan
	rng      *rand.Rand

	// MinSubWindowChips drops sub-windows shorter than this many chips;
	// very short segments have too little frequency resolution.
	MinSubWindowChips int
}

// NewCIC builds a CIC receiver.
func NewCIC(cfg Config) *CIC {
	cfg.defaults()
	d := detect.NewDetector(cfg.Params)
	return &CIC{
		cfg:               cfg,
		detector:          d,
		demod:             d.Demodulator(),
		ref:               lora.NewRefChirps(cfg.Params.SF),
		plan:              dsp.MustPlan(cfg.Params.N()),
		rng:               rand.New(rand.NewSource(cfg.Seed + 1)),
		MinSubWindowChips: cfg.Params.N() / 8,
	}
}

// Decode runs CIC over a trace.
func (c *CIC) Decode(tr *trace.Trace) []Decoded {
	ants := tr.Antennas
	pkts := c.detector.Detect(ants)
	var out []Decoded
	for i, pk := range pkts {
		others := make([]detect.Packet, 0, len(pkts)-1)
		for j, o := range pkts {
			if j != i {
				others = append(others, o)
			}
		}
		numData := maxSymbols(c.cfg, ants, pk)
		shifts := demodAll(c.demod, ants, pk, numData, func(k int, start float64) int {
			return c.selectBin(ants, pk, others, k, start)
		})
		if dec, ok := finish(c.cfg, c.rng, shifts, pk); ok {
			out = append(out, dec)
		}
	}
	return out
}

// selectBin picks the bin of symbol k of the target packet by intersecting
// sub-window spectra.
func (c *CIC) selectBin(ants [][]complex128, pk detect.Packet, others []detect.Packet, k int, start float64) int {
	p := c.cfg.Params
	n := p.N()
	sym := float64(p.SymbolSamples())

	// Sub-window boundaries in chips within [0, N): each interferer whose
	// packet is active here contributes the offset of its symbol boundary.
	cuts := []float64{0, float64(n)}
	for _, o := range others {
		if pk.Start == o.Start {
			continue
		}
		// A non-overlapping interferer's boundary still cuts the window;
		// the only cost is an extra sub-window, so no pruning is needed.
		off := math.Mod(o.Start-start, sym) / float64(p.OSF)
		if off < 0 {
			off += float64(n)
		}
		if off > 1 && off < float64(n)-1 {
			cuts = append(cuts, off)
		}
	}
	sort.Float64s(cuts)

	// Spectrum of each sufficiently long sub-window, summed over antennas.
	var subSpectra [][]float64
	buf := make([]complex128, n)
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b-a < float64(c.MinSubWindowChips) {
			continue
		}
		acc := make([]float64, n)
		for _, ant := range ants {
			c.subSpectrum(buf, ant, start, pk.CFOCycles, k, int(a), int(b))
			for j, v := range buf {
				acc[j] += real(v)*real(v) + imag(v)*imag(v)
			}
		}
		subSpectra = append(subSpectra, acc)
	}
	if len(subSpectra) == 0 {
		subSpectra = append(subSpectra, c.fullSpectrum(ants, start, pk.CFOCycles, k))
	}

	// Peak sets per sub-window; intersect.
	maxPeaks := 2 * (len(others) + 2)
	sets := make([][]peaks.Peak, len(subSpectra))
	for i, sp := range subSpectra {
		sets[i] = peaks.Find(sp, 6*stats.Median(sp), maxPeaks)
	}
	type cand struct {
		bin   int
		total float64
	}
	var cands []cand
	for _, pk0 := range sets[0] {
		total := pk0.Height
		inAll := true
		for i := 1; i < len(sets); i++ {
			found := false
			for _, pkI := range sets[i] {
				if circDist(pkI.Bin, pk0.Bin, n) <= 1 {
					total += pkI.Height
					found = true
					break
				}
			}
			if !found {
				inAll = false
				break
			}
		}
		if inAll {
			cands = append(cands, cand{bin: pk0.Bin, total: total})
		}
	}
	if len(cands) == 0 {
		// Intersection empty: fall back to the strongest full-window bin.
		full := c.fullSpectrum(ants, start, pk.CFOCycles, k)
		return peaks.HighestBin(full)
	}
	best := cands[0]
	for _, cd := range cands[1:] {
		if cd.total > best.total {
			best = cd
		}
	}
	return best.bin
}

// subSpectrum computes the N-point spectrum of the dechirped sub-window
// [a, b) chips of symbol k, zero-padding outside the segment.
func (c *CIC) subSpectrum(buf []complex128, rx []complex128, start, cfo float64, k, a, b int) {
	p := c.cfg.Params
	n := p.N()
	for i := range buf {
		buf[i] = 0
	}
	seg := buf[a:b]
	dsp.Resample(seg, rx, start+float64(a*p.OSF), float64(p.OSF))
	for i := a; i < b; i++ {
		v := buf[i] * conj(c.ref.Up[i])
		if cfo != 0 {
			ph := -2 * math.Pi * cfo * (float64(k) + float64(i)/float64(n))
			v *= dsp.Cis(ph)
		}
		buf[i] = v
	}
	c.plan.Forward(buf)
}

func (c *CIC) fullSpectrum(ants [][]complex128, start, cfo float64, k int) []float64 {
	p := c.cfg.Params
	acc := make([]float64, p.N())
	c.demod.SumSignalVectorInto(acc, make([]float64, p.N()), make([]complex128, p.N()), ants, start, cfo, k, false)
	return acc
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

func circDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d > n/2 {
		d = n - d
	}
	return d
}
