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
		sc := newCICScratch(c.cfg.Params.N())
		shifts := demodAll(c.demod, ants, pk, numData, func(k int, start float64) int {
			return c.selectBin(sc, ants, pk, others, k, start)
		})
		if dec, ok := finish(c.cfg, c.rng, shifts, pk); ok {
			out = append(out, dec)
		}
	}
	return out
}

// cicScratch holds one packet's per-symbol working buffers, so selectBin
// reuses them across the packet's symbols instead of allocating each time.
type cicScratch struct {
	cuts []float64
	buf  []complex128 // one antenna's sub-window or full-window spectrum
	vec  []float64    // one antenna's full-window signal vector
	full []float64    // full-window spectrum summed over antennas
	sel  stats.Selector
	// acc[i] is the i-th kept sub-window's spectrum summed over antennas,
	// and sets[i] its peaks; both grow to the most sub-windows seen.
	acc   [][]float64
	sets  [][]peaks.Peak
	cands []cicCand
	// fullOnly is {full}, the spectra of a symbol no sub-window survives in.
	fullOnly [][]float64
}

// cicCand is a peak of the first sub-window found in every other one, with
// its heights summed over all of them.
type cicCand struct {
	bin   int
	total float64
}

func newCICScratch(n int) *cicScratch {
	sc := &cicScratch{buf: make([]complex128, n), vec: make([]float64, n),
		full: make([]float64, n)}
	sc.fullOnly = [][]float64{sc.full}
	return sc
}

// selectBin picks the bin of symbol k of the target packet by intersecting
// sub-window spectra.
func (c *CIC) selectBin(sc *cicScratch, ants [][]complex128, pk detect.Packet, others []detect.Packet, k int, start float64) int {
	p := c.cfg.Params
	n := p.N()
	sym := float64(p.SymbolSamples())

	// Sub-window boundaries in chips within [0, N): each interferer whose
	// packet is active here contributes the offset of its symbol boundary.
	cuts := append(sc.cuts[:0], 0, float64(n))
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
	sc.cuts = cuts

	// Spectrum of each sufficiently long sub-window, summed over antennas.
	m := 0
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b-a < float64(c.MinSubWindowChips) {
			continue
		}
		if m == len(sc.acc) {
			sc.acc = append(sc.acc, make([]float64, n))
		}
		acc := sc.acc[m]
		m++
		clear(acc)
		for _, ant := range ants {
			c.subSpectrum(sc.buf, ant, start, pk.CFOCycles, k, int(a), int(b))
			for j, v := range sc.buf {
				acc[j] += real(v)*real(v) + imag(v)*imag(v)
			}
		}
	}
	subSpectra := sc.acc[:m]
	if m == 0 {
		c.fullSpectrum(sc, ants, start, pk.CFOCycles, k)
		subSpectra = sc.fullOnly
	}

	// Peak sets per sub-window; intersect.
	maxPeaks := 2 * (len(others) + 2)
	for len(sc.sets) < len(subSpectra) {
		sc.sets = append(sc.sets, nil)
	}
	sets := sc.sets[:len(subSpectra)]
	for i, sp := range subSpectra {
		sets[i] = peaks.FindInto(sets[i], sp, 6*sc.sel.Median(sp), maxPeaks)
	}
	cands := sc.cands[:0]
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
			cands = append(cands, cicCand{bin: pk0.Bin, total: total})
		}
	}
	sc.cands = cands
	if len(cands) == 0 {
		// Intersection empty: fall back to the strongest full-window bin.
		return peaks.HighestBin(c.fullSpectrum(sc, ants, start, pk.CFOCycles, k))
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

// fullSpectrum sums symbol k's full-window signal vectors over antennas
// into sc.full and returns it.
func (c *CIC) fullSpectrum(sc *cicScratch, ants [][]complex128, start, cfo float64, k int) []float64 {
	c.demod.SumSignalVectorInto(sc.full, sc.vec, sc.buf, ants, start, cfo, k, false)
	return sc.full
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
