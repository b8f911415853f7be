package baseline

import (
	"math"
	"math/rand"

	"tnb/internal/detect"
	"tnb/internal/lora"
	"tnb/internal/peaks"
	"tnb/internal/stats"
	"tnb/internal/trace"
)

// Choir implements the core idea of Choir (Eletreby et al., SIGCOMM'17):
// hardware imperfections give every node a distinct fractional CFO, so the
// sub-bin fractional position of a demodulation peak identifies its
// transmitter. After the detector estimates and corrects each packet's CFO,
// the packet's own peaks sit on (near-)integer bins of its own signal
// vectors while interfering peaks land at the interferers' fractional
// offsets; Choir keeps the strongest near-integer peak per symbol.
type Choir struct {
	cfg      Config
	detector *detect.Detector
	demod    *lora.Demodulator
	rng      *rand.Rand

	// FracTolerance is the maximum |fractional part| for a peak to count
	// as the packet's own.
	FracTolerance float64
}

// NewChoir builds a Choir receiver.
func NewChoir(cfg Config) *Choir {
	cfg.defaults()
	d := detect.NewDetector(cfg.Params)
	return &Choir{
		cfg:           cfg,
		detector:      d,
		demod:         d.Demodulator(),
		rng:           rand.New(rand.NewSource(cfg.Seed + 1)),
		FracTolerance: 0.15,
	}
}

// Decode runs fractional-position peak selection over the trace.
func (c *Choir) Decode(tr *trace.Trace) []Decoded {
	ants := tr.Antennas
	pkts := c.detector.Detect(ants)
	var out []Decoded
	for _, pk := range pkts {
		numData := maxSymbols(c.cfg, ants, pk)
		shifts := demodAll(c.demod, ants, pk, numData, func(k int, start float64) int {
			return c.selectBin(ants, pk, k, start)
		})
		if dec, ok := finish(c.cfg, c.rng, shifts, pk); ok {
			out = append(out, dec)
		}
	}
	return out
}

// selectBin picks the strongest peak whose interpolated position is within
// FracTolerance of an integer bin; falls back to the strongest peak.
func (c *Choir) selectBin(ants [][]complex128, pk detect.Packet, k int, start float64) int {
	p := c.cfg.Params
	acc := make([]float64, p.N())
	c.demod.SumSignalVectorInto(acc, make([]float64, p.N()), make([]complex128, p.N()), ants, start, pk.CFOCycles, k, false)
	ps := peaks.Find(acc, 6*stats.Median(acc), 8)
	var best *peaks.Peak
	for i := range ps {
		pos := peaks.InterpolateBin(acc, ps[i].Bin)
		frac := math.Abs(pos - math.Round(pos))
		if frac <= c.FracTolerance {
			if best == nil || ps[i].Height > best.Height {
				best = &ps[i]
			}
		}
	}
	if best != nil {
		return best.Bin
	}
	return peaks.HighestBin(acc)
}
