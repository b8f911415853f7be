package baseline

import (
	"math"
	"math/rand"
	"sort"

	"tnb/internal/detect"
	"tnb/internal/lora"
	"tnb/internal/trace"
)

// MLoRa implements the successive-interference-cancellation decoder of
// mLoRa (Wang et al., ICNP'19): packets are decoded strongest-first from
// the residual signal; each successful decode is re-synthesized from the
// CRC-verified payload, channel-fitted per symbol, and subtracted, which
// progressively frees the weaker packets from interference.
type MLoRa struct {
	cfg      Config
	detector *detect.Detector
	demod    *lora.Demodulator
	rng      *rand.Rand

	// MaxRounds bounds the decode/subtract sweeps over the packet set.
	MaxRounds int
}

// NewMLoRa builds an mLoRa receiver.
func NewMLoRa(cfg Config) *MLoRa {
	d := detect.NewDetector(cfg.Params)
	return &MLoRa{
		cfg:       cfg,
		detector:  d,
		demod:     d.Demodulator(),
		rng:       rand.New(rand.NewSource(cfg.Seed + 1)),
		MaxRounds: 3,
	}
}

// Decode runs iterative decode-and-subtract over the trace.
func (m *MLoRa) Decode(tr *trace.Trace) []Decoded {
	// Work on a mutable copy of the samples: subtraction is destructive.
	residual := make([][]complex128, tr.NumAntennas())
	for a := range residual {
		residual[a] = append([]complex128(nil), tr.Antennas[a]...)
	}

	pkts := m.detector.Detect(residual)
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].Quality > pkts[j].Quality })
	done := make([]bool, len(pkts))

	var out []Decoded
	for round := 0; round < m.MaxRounds; round++ {
		progress := false
		for i, pk := range pkts {
			if done[i] {
				continue
			}
			shifts := demodAll(m.demod, residual, pk, maxSymbols(m.cfg, residual, pk), nil)
			dec, ok := finish(m.cfg, m.rng, shifts, pk)
			if !ok {
				continue
			}
			done[i] = true
			progress = true
			out = append(out, dec)
			m.subtract(residual, pk, dec)
		}
		if !progress {
			break
		}
	}
	return out
}

// subtract re-synthesizes the decoded packet and removes it from the
// residual, fitting a complex gain per symbol so that residual CFO and
// slow fading do not leave energy behind.
func (m *MLoRa) subtract(residual [][]complex128, pk detect.Packet, dec Decoded) {
	p := m.cfg.Params
	pp := p
	pp.CR = dec.Header.CR
	shifts, _, err := lora.Encode(pp, dec.Payload)
	if err != nil {
		return
	}
	w := lora.NewWaveform(pp, shifts)

	n0 := math.Floor(pk.Start)
	frac := pk.Start - n0
	cfoHz := pk.CFOCycles / p.SymbolDuration()
	ref := w.Render(frac, cfoHz, 0)

	start := int(n0)
	seg := p.SymbolSamples()
	for a := range residual {
		rx := residual[a]
		for off := 0; off < len(ref); off += seg {
			end := off + seg
			if end > len(ref) {
				end = len(ref)
			}
			lo, hi := start+off, start+end
			if lo < 0 || hi > len(rx) {
				continue
			}
			// Per-symbol least-squares gain: g = <rx, ref>/<ref, ref>.
			var num complex128
			var den float64
			for k := off; k < end; k++ {
				r := ref[k]
				num += rx[start+k] * complex(real(r), -imag(r))
				den += real(r)*real(r) + imag(r)*imag(r)
			}
			if den == 0 {
				continue
			}
			g := num / complex(den, 0)
			for k := off; k < end; k++ {
				rx[start+k] -= g * ref[k]
			}
		}
	}
}
