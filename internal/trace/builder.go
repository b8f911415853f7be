package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tnb/internal/channel"
	"tnb/internal/dsp"
	"tnb/internal/lora"
)

// TxRecord is the ground truth for one transmitted packet, used by the
// evaluation harness to score decoders.
type TxRecord struct {
	Node        int
	Seq         int
	Payload     []uint8
	StartSample float64 // fractional receiver sample of the packet start
	CFOHz       float64
	SNRdB       float64 // per-sample SNR against the unit noise floor
	Shifts      []int   // data symbol shifts actually transmitted
	NumSamples  int     // packet length in receiver samples
}

// EndSample returns the last receiver sample covered by the packet.
func (r TxRecord) EndSample() float64 { return r.StartSample + float64(r.NumSamples) }

// Overlaps reports whether two packets overlap in time.
func (r TxRecord) Overlaps(o TxRecord) bool {
	return r.StartSample < o.EndSample() && o.StartSample < r.EndSample()
}

// Builder composes a synthetic multi-node trace.
type Builder struct {
	Params     lora.Params
	Antennas   int
	NoisePower float64 // per-sample AWGN power; 0 disables noise
	rng        *rand.Rand
	duration   int // samples
	pending    []pendingPacket
}

type pendingPacket struct {
	rec      TxRecord
	channels []channel.Model // one per antenna; nil means random-phase flat
}

// NewBuilder creates a builder for a trace of the given duration in
// seconds. The RNG drives noise, random phases and any random scheduling.
func NewBuilder(p lora.Params, durationSec float64, antennas int, rng *rand.Rand) *Builder {
	if antennas < 1 {
		antennas = 1
	}
	return &Builder{
		Params:     p,
		Antennas:   antennas,
		NoisePower: 1,
		rng:        rng,
		duration:   int(durationSec * p.SampleRate()),
	}
}

// AddPacket schedules a packet from node with the given payload at the
// (fractional) start sample, per-sample SNR (dB) and CFO (Hz). channels, if
// non-nil, provides one channel model per antenna; otherwise a flat channel
// with a random phase per antenna is used.
func (b *Builder) AddPacket(node, seq int, payload []uint8, startSample, snrDB, cfoHz float64, channels []channel.Model) error {
	shifts, _, err := lora.Encode(b.Params, payload)
	if err != nil {
		return err
	}
	numSamples := b.Params.PreambleSamples() + len(shifts)*b.Params.SymbolSamples()
	if startSample < 0 || int(startSample)+numSamples > b.duration {
		return fmt.Errorf("trace: packet [%g, %g) outside trace of %d samples",
			startSample, startSample+float64(numSamples), b.duration)
	}
	if channels != nil && len(channels) != b.Antennas {
		return fmt.Errorf("trace: %d channel models for %d antennas", len(channels), b.Antennas)
	}
	b.pending = append(b.pending, pendingPacket{
		rec: TxRecord{
			Node: node, Seq: seq,
			Payload:     append([]uint8(nil), payload...),
			StartSample: startSample, CFOHz: cfoHz, SNRdB: snrDB,
			Shifts: shifts, NumSamples: numSamples,
		},
		channels: channels,
	})
	return nil
}

// Build renders all scheduled packets, adds noise, and returns the trace
// along with the ground-truth records sorted by start time.
func (b *Builder) Build() (*Trace, []TxRecord) {
	tr := NewTrace(b.Params.SampleRate(), b.Antennas, b.duration)
	noise := b.NoisePower
	if noise < 0 {
		noise = 0
	}
	for _, pp := range b.pending {
		b.renderPacket(tr, pp)
	}
	if noise > 0 {
		for a := range tr.Antennas {
			dsp.AddNoise(tr.Antennas[a], noise, b.rng)
		}
	}
	recs := make([]TxRecord, len(b.pending))
	for i, pp := range b.pending {
		recs[i] = pp.rec
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].StartSample < recs[j].StartSample })
	return tr, recs
}

func (b *Builder) renderPacket(tr *Trace, pp pendingPacket) {
	rec := pp.rec
	w := lora.NewWaveform(b.Params, rec.Shifts)
	n0 := int(math.Floor(rec.StartSample))
	frac := rec.StartSample - float64(n0)
	amp := math.Sqrt(dsp.DBToLinear(rec.SNRdB) * math.Max(b.NoisePower, 1e-30))
	if b.NoisePower == 0 {
		amp = math.Sqrt(dsp.DBToLinear(rec.SNRdB))
	}
	phase0 := 2 * math.Pi * b.rng.Float64()
	base := w.Render(frac, rec.CFOHz, phase0)
	dsp.Scale(base, amp)

	for a := 0; a < b.Antennas; a++ {
		var faded []complex128
		if pp.channels != nil {
			faded = pp.channels[a].Apply(base, b.Params.SampleRate(), n0)
		} else if b.Antennas > 1 || a > 0 {
			g := dsp.Cis(2 * math.Pi * b.rng.Float64())
			faded = make([]complex128, len(base))
			for i, v := range base {
				faded[i] = v * g
			}
		} else {
			faded = base
		}
		dst := tr.Antennas[a]
		for i, v := range faded {
			if idx := n0 + i; idx >= 0 && idx < len(dst) {
				dst[idx] += v
			}
		}
	}
}

// ScheduleUniform draws nPackets start times uniformly over the trace such
// that each packet fits, returning sorted fractional start samples.
func (b *Builder) ScheduleUniform(nPackets, payloadLen int) []float64 {
	pktSamples := b.Params.PacketSamples(payloadLen)
	span := b.duration - pktSamples - 1
	if span <= 0 {
		return nil
	}
	starts := make([]float64, nPackets)
	for i := range starts {
		starts[i] = b.rng.Float64() * float64(span)
	}
	sort.Float64s(starts)
	return starts
}
