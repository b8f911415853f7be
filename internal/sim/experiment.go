package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"tnb/internal/baseline"
	"tnb/internal/channel"
	"tnb/internal/lora"
	"tnb/internal/obs"
	"tnb/internal/stagegraph"
	"tnb/internal/thrive"
	"tnb/internal/trace"
)

// tracer, when set, is handed to every TnB-family receiver runScheme
// builds, so offline figure runs export the same per-packet decode traces
// as a live gateway (tnbsim -trace-out). Baseline schemes (CIC, LoRaPHY,
// mLoRa) do not run the TnB pipeline and emit no traces.
var tracer *obs.Tracer

// SetTracer installs the process-wide experiment tracer. Call before the
// figure runs; not safe to change mid-run.
func SetTracer(t *obs.Tracer) { tracer = t }

// workers is the per-receiver worker-pool width handed to every TnB-family
// receiver runScheme builds (stagegraph.Config.Workers semantics:
// 0 → GOMAXPROCS, 1 → serial). Figure runs already fan out across runs and
// loads, so CLI users typically set 1 here and let ParallelRuns own the
// cores.
var workers int

// SetWorkers installs the process-wide per-receiver pool width. Call before
// the figure runs; not safe to change mid-run.
func SetWorkers(n int) { workers = n }

// Scheme identifies one decoder under test (paper §8.2, §8.4, §8.5).
type Scheme int

const (
	SchemeTnB        Scheme = iota // Thrive + BEC
	SchemeThrive                   // Thrive + default decoder (§8.4)
	SchemeSibling                  // sibling cost only + default decoder
	SchemeAlignTrack               // AlignTrack* + default decoder
	SchemeAlignTrackBEC
	SchemeCIC
	SchemeCICBEC
	SchemeLoRaPHY
	SchemeTnB2Ant // TnB with two receive antennas (§8.5)
	SchemeMLoRa   // successive interference cancellation (related work §2)
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case SchemeTnB:
		return "TnB"
	case SchemeThrive:
		return "Thrive"
	case SchemeSibling:
		return "Sibling"
	case SchemeAlignTrack:
		return "AlignTrack*"
	case SchemeAlignTrackBEC:
		return "AlignTrack*+"
	case SchemeCIC:
		return "CIC"
	case SchemeCICBEC:
		return "CIC+"
	case SchemeLoRaPHY:
		return "LoRaPHY"
	case SchemeMLoRa:
		return "mLoRa"
	case SchemeTnB2Ant:
		return "TnB2ant"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Antennas returns the receive-antenna count the scheme uses.
func (s Scheme) Antennas() int {
	if s == SchemeTnB2Ant {
		return 2
	}
	return 1
}

// Config describes one experiment run (one trace).
type Config struct {
	Deployment Deployment
	SF, CR     int
	// LoadPktPerSec is the aggregate network traffic load (paper: 5–25).
	LoadPktPerSec float64
	// DurationSec is the trace length (paper: 30 s; tests use less).
	DurationSec float64
	// ETU enables the LTE ETU fading channel with 5 Hz Doppler (§8.5).
	ETU bool
	// Seed makes the run reproducible; the trace depends only on the
	// seed and config, never on the scheme.
	Seed int64
}

func (c Config) params() lora.Params {
	return lora.MustParams(c.SF, c.CR, 125e3, 8)
}

// payloadLen is the payload in bytes before the 16-bit CRC (paper: 16 bytes
// on air including CRC → 14 here).
const payloadLen = 14

// GroundTruth is the generated scenario for one run.
type GroundTruth struct {
	Trace   *trace.Trace
	Records []trace.TxRecord
	Params  lora.Params
}

// Generate builds the trace for a config with the given antenna count.
// The same seed and config produce the same transmissions regardless of
// antennas, so schemes compare on identical traffic.
func Generate(cfg Config, antennas int) (*GroundTruth, error) {
	p := cfg.params()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := trace.NewBuilder(p, cfg.DurationSec, antennas, rng)

	snrs := cfg.Deployment.NodeSNRs(rng)
	cfos := make([]float64, cfg.Deployment.Nodes)
	for i := range cfos {
		cfos[i] = -4880 + 2*4880*rng.Float64()
	}

	nPackets := int(cfg.LoadPktPerSec * cfg.DurationSec)
	starts := b.ScheduleUniform(nPackets, payloadLen)
	var fs float64 = p.SampleRate()
	seqPerNode := map[int]int{}
	for _, s := range starts {
		node := rng.Intn(cfg.Deployment.Nodes)
		seq := seqPerNode[node]
		seqPerNode[node]++
		payload := MakePayload(node, seq, payloadLen)

		var chans []channel.Model
		if cfg.ETU {
			chans = make([]channel.Model, antennas)
			for a := range chans {
				chans[a] = channel.NewFading(channel.ETUProfile, 5, fs,
					rand.New(rand.NewSource(cfg.Seed^int64(node*131+a*7+1))))
			}
		}
		if err := b.AddPacket(node, seq, payload, s, snrs[node], cfos[node], chans); err != nil {
			return nil, err
		}
	}
	tr, recs := b.Build()
	return &GroundTruth{Trace: tr, Records: recs, Params: p}, nil
}

// MakePayload builds the experiment payload: 2-byte node ID, 2-byte
// sequence number, filler (paper §8.1: node ID and sequence number are
// embedded in the data).
func MakePayload(node, seq, n int) []uint8 {
	p := make([]uint8, n)
	if n >= 4 {
		binary.BigEndian.PutUint16(p[0:2], uint16(node))
		binary.BigEndian.PutUint16(p[2:4], uint16(seq))
	}
	for i := 4; i < n; i++ {
		p[i] = uint8(0xA5 ^ i ^ node ^ seq)
	}
	return p
}

// decodedPacket is the scheme-independent view of a decode.
type decodedPacket struct {
	payload []uint8
	start   float64
	snrdB   float64
	rescued int
	pass    int
	hasSNR  bool
}

// runScheme decodes the trace with the scheme.
func runScheme(s Scheme, gt *GroundTruth, cfg Config) []decodedPacket {
	p := gt.Params
	var out []decodedPacket
	switch s {
	case SchemeTnB, SchemeThrive, SchemeSibling, SchemeAlignTrack, SchemeAlignTrackBEC, SchemeTnB2Ant:
		// Record into the process-wide pipeline instruments so offline
		// simulations share the live gateway's metrics schema (dumped by
		// tnbsim -metrics-out). Atomic counters: safe under ParallelRuns.
		rc := stagegraph.Config{Params: p, UseBEC: true, Seed: cfg.Seed,
			Workers: workers, Metrics: stagegraph.DefaultPipelineMetrics(), Tracer: tracer}
		switch s {
		case SchemeThrive:
			rc.UseBEC = false
		case SchemeSibling:
			rc.UseBEC = false
			rc.Policy = thrive.PolicySibling
		case SchemeAlignTrack:
			rc.UseBEC = false
			rc.Policy = thrive.PolicyAlignTrack
		case SchemeAlignTrackBEC:
			rc.Policy = thrive.PolicyAlignTrack
		}
		r := stagegraph.New(rc)
		for _, d := range r.Decode(gt.Trace) {
			out = append(out, decodedPacket{payload: d.Payload, start: d.Start,
				snrdB: d.SNRdB, rescued: d.Rescued, pass: d.Pass, hasSNR: true})
		}
	case SchemeCIC, SchemeCICBEC:
		c := baseline.NewCIC(baseline.Config{Params: p, UseBEC: s == SchemeCICBEC, Seed: cfg.Seed})
		for _, d := range c.Decode(gt.Trace) {
			out = append(out, decodedPacket{payload: d.Payload, start: d.Start})
		}
	case SchemeLoRaPHY:
		l := baseline.NewLoRaPHY(baseline.Config{Params: p, Seed: cfg.Seed})
		for _, d := range l.Decode(gt.Trace) {
			out = append(out, decodedPacket{payload: d.Payload, start: d.Start})
		}
	case SchemeMLoRa:
		ml := baseline.NewMLoRa(baseline.Config{Params: p, Seed: cfg.Seed})
		for _, d := range ml.Decode(gt.Trace) {
			out = append(out, decodedPacket{payload: d.Payload, start: d.Start})
		}
	}
	return out
}
