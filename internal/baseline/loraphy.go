// Package baseline implements the comparison schemes of the paper's
// evaluation (§8.2): LoRaPHY, the standard single-user decoder, and CIC,
// the sub-window spectra intersection decoder of SIGCOMM'21. Both reuse
// TnB's packet detection (as in the paper, where every scheme processes the
// same traces and CIC/AlignTrack* outputs are decoded by the open-source
// LoRa implementation); each can be paired with the default Hamming decoder
// or with BEC (the CIC+ configuration of §8.5).
package baseline

import (
	"math/rand"

	"tnb/internal/bec"
	"tnb/internal/detect"
	"tnb/internal/lora"
	"tnb/internal/trace"
)

// Decoded mirrors stagegraph.Decoded for baseline receivers.
type Decoded struct {
	Payload   []uint8
	Header    lora.Header
	Start     float64
	CFOCycles float64
}

// Config configures a baseline receiver.
type Config struct {
	Params lora.Params
	// UseBEC decodes with Block Error Correction (CIC+ / AlignTrack*+).
	UseBEC bool
	// Seed drives BEC candidate sampling.
	Seed int64
}

// maxPayloadLen bounds the provisional packet length in bytes.
const maxPayloadLen = 48

// LoRaPHY is the standard LoRa decoder: strongest bin per symbol, default
// Hamming decoding, no collision resolution.
type LoRaPHY struct {
	cfg      Config
	detector *detect.Detector
	demod    *lora.Demodulator
	rng      *rand.Rand
}

// NewLoRaPHY builds the standard decoder.
func NewLoRaPHY(cfg Config) *LoRaPHY {
	d := detect.NewDetector(cfg.Params)
	return &LoRaPHY{cfg: cfg, detector: d, demod: d.Demodulator(),
		rng: rand.New(rand.NewSource(cfg.Seed + 1))}
}

// Decode detects packets and hard-demodulates each symbol independently.
func (l *LoRaPHY) Decode(tr *trace.Trace) []Decoded {
	ants := tr.Antennas
	var out []Decoded
	for _, pk := range l.detector.Detect(ants) {
		shifts := demodAll(l.demod, ants, pk, maxSymbols(l.cfg, ants, pk), nil)
		if dec, ok := finish(l.cfg, l.rng, shifts, pk); ok {
			out = append(out, dec)
		}
	}
	return out
}

// maxSymbols bounds the provisional data-symbol count of a detected packet.
func maxSymbols(cfg Config, ants [][]complex128, pk detect.Packet) int {
	p := cfg.Params
	lay, err := lora.NewLayout(p, maxPayloadLen)
	maxSyms := 0
	if err == nil {
		maxSyms = lay.DataSymbols
	}
	dataStart := pk.Start + (lora.PreambleUpchirps+lora.SyncSymbols+
		float64(lora.DownchirpQuarters)/4)*float64(p.SymbolSamples())
	avail := int((float64(len(ants[0])) - dataStart) / float64(p.SymbolSamples()))
	if avail < 0 {
		avail = 0
	}
	if maxSyms == 0 || avail < maxSyms {
		maxSyms = avail
	}
	return maxSyms
}

// demodAll hard-demodulates numData symbols of a packet, summing signal
// vectors across antennas. A non-nil selector overrides the per-symbol bin
// decision.
func demodAll(demod *lora.Demodulator, ants [][]complex128, pk detect.Packet,
	numData int, selector func(symIdx int, start float64) int) []int {

	p := demod.Params()
	dataStart := pk.Start + (lora.PreambleUpchirps+lora.SyncSymbols+
		float64(lora.DownchirpQuarters)/4)*float64(p.SymbolSamples())
	shifts := make([]int, numData)
	acc := make([]float64, p.N())
	buf := make([]complex128, p.N())
	scratch := make([]float64, p.N())
	for k := 0; k < numData; k++ {
		s := dataStart + float64(k*p.SymbolSamples())
		if selector != nil {
			shifts[k] = selector(k, s)
			continue
		}
		demod.SumSignalVectorInto(acc, scratch, buf, ants, s, pk.CFOCycles, k, false)
		best, bi := 0.0, 0
		for i, v := range acc {
			if v > best {
				best, bi = v, i
			}
		}
		shifts[k] = bi
	}
	return shifts
}

// finish decodes assigned shifts with BEC or the default decoder.
func finish(cfg Config, rng *rand.Rand, shifts []int, pk detect.Packet) (Decoded, bool) {
	if len(shifts) < lora.HeaderSymbols {
		return Decoded{}, false
	}
	if cfg.UseBEC {
		pd := bec.NewPacketDecoder(0, rng)
		res := pd.DecodePacket(cfg.Params, shifts)
		if !res.OK {
			return Decoded{}, false
		}
		return Decoded{Payload: res.Payload, Header: res.Header,
			Start: pk.Start, CFOCycles: pk.CFOCycles}, true
	}
	res := lora.DecodeDefault(cfg.Params, shifts)
	if !res.OK {
		return Decoded{}, false
	}
	return Decoded{Payload: res.Payload, Header: res.Header,
		Start: pk.Start, CFOCycles: pk.CFOCycles}, true
}
