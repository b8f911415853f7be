package stagegraph

import (
	"encoding/json"
	"fmt"
	"os"

	"tnb/internal/detect"
	"tnb/internal/lora"
	"tnb/internal/peaks"
	"tnb/internal/thrive"
)

// Auxiliary (non-boundary) record names. Boundary records use the Stage*
// constants in record.go.
const (
	recNameHeader  = "header"
	recNameSamples = "samples"
	recNamePass    = "pass"
)

// boundary is one stage boundary of a pass: the stage whose output it is,
// the encoder that snapshots it from a window, and a pure decoder that
// rejects a corrupted payload at parse time.
type boundary struct {
	stage  Stage
	encode func(*Window) []byte
	check  func([]byte) error
}

// boundaries lists a pass's stage boundaries in pipeline order. It is the
// one place a stage is registered with the recorder, the parser and replay.
var boundaries = [...]boundary{
	{DetectStage{}, encodeDetect, func(b []byte) error { _, err := decodeDetect(b); return err }},
	{SigCalcStage{}, encodeSigCalc, func(b []byte) error { _, err := parseSigCalc(b); return err }},
	{ThriveStage{}, encodeThrive, func(b []byte) error { _, err := parseThrive(b); return err }},
	{BECStage{}, encodeBEC, func(b []byte) error { _, err := decodeBEC(b); return err }},
}

// boundaryFor returns the boundary of the named stage, or nil.
func boundaryFor(name string) *boundary {
	for i := range boundaries {
		if boundaries[i].stage.Name() == name {
			return &boundaries[i]
		}
	}
	return nil
}

// RecHeader is the recording's self-description: the format version plus
// every Config knob that shapes stage outputs, so a replay pipeline can be
// reconstructed from the recording alone. It is stored as JSON — the one
// human-greppable record in an otherwise binary file.
type RecHeader struct {
	Version int

	SF        int
	CR        int
	Bandwidth float64
	OSF       int
	// LDRO is derived from SF and Bandwidth (lora.Params.LDRO); the field
	// keeps the wire format, and ParseRecording rejects any other value.
	LDRO bool

	Policy            int
	UseBEC            bool
	DisableSecondPass bool
	W                 int
	MaxPayloadLen     int
	Omega             float64
	ListDecode        bool
	// ListDecodeBudget is always 0: the budget is the constant
	// listDecodeBudget, and the field stays so recording headers keep their
	// bytes. ParseRecording rejects any other value.
	ListDecodeBudget int
	Seed             int64
}

// headerFromConfig captures the replay-relevant subset of cfg.
func headerFromConfig(cfg *Config) RecHeader {
	return RecHeader{
		Version:           recVersion,
		SF:                cfg.Params.SF,
		CR:                cfg.Params.CR,
		Bandwidth:         cfg.Params.Bandwidth,
		OSF:               cfg.Params.OSF,
		LDRO:              cfg.Params.LDRO(),
		Policy:            int(cfg.Policy),
		UseBEC:            cfg.UseBEC,
		DisableSecondPass: cfg.DisableSecondPass,
		W:                 cfg.W,
		MaxPayloadLen:     cfg.MaxPayloadLen,
		Omega:             cfg.Omega,
		ListDecode:        cfg.ListDecode,
		Seed:              cfg.Seed,
	}
}

// Config rebuilds the pipeline configuration the recording was made with.
// Workers is left zero — replay chooses its own width, which must not (and,
// per the determinism tests, does not) change any boundary.
func (h *RecHeader) Config() Config {
	return Config{
		Params:            lora.MustParams(h.SF, h.CR, h.Bandwidth, h.OSF),
		Policy:            thrive.Policy(h.Policy),
		UseBEC:            h.UseBEC,
		DisableSecondPass: h.DisableSecondPass,
		W:                 h.W,
		MaxPayloadLen:     h.MaxPayloadLen,
		Omega:             h.Omega,
		ListDecode:        h.ListDecode,
		Seed:              h.Seed,
	}
}

// Recorder accumulates a stage recording in memory. Attach one via
// Config.Recorder; the pipeline then snapshots every stage boundary it
// crosses (both decoding passes, every window of the Recorder's lifetime).
// A Recorder is not safe for concurrent use, matching the pipeline it
// records.
type Recorder struct {
	buf []byte
	// cur tracks the window currently being recorded so snapshot can emit
	// the samples and pass markers exactly once per graph run.
	cur *Window
}

// NewRecorder returns an empty recorder ready to attach to a Config.
func NewRecorder() *Recorder { return &Recorder{} }

// init writes the magic and header record. Called once by New.
func (r *Recorder) init(cfg *Config) {
	r.buf = append(r.buf, recMagic...)
	hdr, err := json.Marshal(headerFromConfig(cfg))
	if err != nil {
		// RecHeader is a plain struct of scalars; Marshal cannot fail.
		panic("stagegraph: encoding recording header: " + err.Error())
	}
	r.buf = appendRecord(r.buf, recNameHeader, hdr)
}

// Bytes returns the recording so far. The slice aliases the recorder's
// buffer; callers that keep recording afterwards should copy it.
func (r *Recorder) Bytes() []byte { return r.buf }

// WriteFile writes the recording to path.
func (r *Recorder) WriteFile(path string) error {
	return os.WriteFile(path, r.buf, 0o644)
}

// snapshot records one stage's output boundary. The first boundary of a
// pass-1 window is preceded by the window's raw samples; the first boundary
// of any pass by a pass marker.
func (r *Recorder) snapshot(name string, w *Window) {
	if w != r.cur {
		r.cur = w
		if w.Pass == 1 {
			var e payloadEnc
			e.uv(uint64(len(w.Antennas)))
			for _, ant := range w.Antennas {
				e.c128s(ant)
			}
			r.buf = appendRecord(r.buf, recNameSamples, e.b)
		}
		var e payloadEnc
		e.uv(uint64(w.Pass))
		r.buf = appendRecord(r.buf, recNamePass, e.b)
	}
	b := boundaryFor(name)
	if b == nil {
		panic("stagegraph: unknown stage boundary " + name)
	}
	r.buf = appendRecord(r.buf, name, b.encode(w))
}

// encodeDetect serializes the detect boundary: the refined detections.
func encodeDetect(w *Window) []byte {
	var e payloadEnc
	e.uv(uint64(len(w.Pkts)))
	for _, pk := range w.Pkts {
		e.f64(pk.Start)
		e.f64(pk.CFOCycles)
		e.f64(pk.Quality)
	}
	return e.b
}

func decodeDetect(payload []byte) ([]detect.Packet, error) {
	d := payloadDec{b: payload}
	n := d.sliceLen(24)
	pkts := make([]detect.Packet, 0, n)
	for i := 0; i < n; i++ {
		pkts = append(pkts, detect.Packet{Start: d.f64(), CFOCycles: d.f64(), Quality: d.f64()})
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("detect boundary: %w", err)
	}
	return pkts, nil
}

// encodeSigCalc serializes the sigcalc boundary: per packet, the calculator
// geometry, the pass-2 carry-over (known shifts / prior heights), and every
// signal vector the stage materialized. Raw float64 bits keep it lossless:
// a replayed sigcalc stage matches byte-for-byte iff its vectors are
// bit-identical.
func encodeSigCalc(w *Window) []byte {
	var e payloadEnc
	e.uv(uint64(len(w.States)))
	for i, st := range w.States {
		c := w.Calcs[i]
		e.f64(c.Start())
		e.f64(c.CFOCycles())
		e.iv(int64(c.NumData()))
		e.bool(st.Known)
		e.ints(st.KnownShifts)
		e.bool(st.PriorHeights != nil)
		if st.PriorHeights != nil {
			e.f64s(st.PriorHeights)
		}
		lo, hi := peaks.SymbolRange(c.NumData())
		var present []int
		for idx := lo; idx < hi; idx++ {
			if _, ok := c.CachedVec(idx); ok {
				present = append(present, idx)
			}
		}
		e.uv(uint64(len(present)))
		for _, idx := range present {
			y, _ := c.CachedVec(idx)
			e.iv(int64(idx))
			e.f64s(y)
		}
	}
	return e.b
}

// maxReplayDataSymbols bounds a parsed packet's claimed data-symbol count.
// Real packets top out in the hundreds (255-byte payload ceiling); the
// bound keeps a corrupted count from driving a huge arena allocation when
// the replay calculator is built.
const maxReplayDataSymbols = 4096

// sigCalcPacket is one parsed sigcalc boundary entry. Parsing is pure and
// allocation-bounded by the payload size (fuzz-safe); building replay
// calculators from it is a separate step that needs a demodulator.
type sigCalcPacket struct {
	start, cfo  float64
	numData     int
	known       bool
	knownShifts []int
	prior       []float64
	hasPrior    bool
	vecs        map[int][]float64
}

func parseSigCalc(payload []byte) ([]sigCalcPacket, error) {
	d := payloadDec{b: payload}
	n := int(d.uv())
	var out []sigCalcPacket
	for i := 0; i < n && d.err == nil; i++ {
		p := sigCalcPacket{
			start:   d.f64(),
			cfo:     d.f64(),
			numData: int(d.iv()),
		}
		p.known = d.bool()
		p.knownShifts = d.ints()
		p.hasPrior = d.bool()
		if p.hasPrior {
			p.prior = d.f64s()
		}
		if d.err != nil {
			break
		}
		if p.numData < 0 || p.numData > maxReplayDataSymbols {
			d.fail("bad data symbol count %d", p.numData)
			break
		}
		nvec := int(d.uv())
		p.vecs = make(map[int][]float64, nvec)
		lo, hi := peaks.SymbolRange(p.numData)
		for v := 0; v < nvec && d.err == nil; v++ {
			idx := int(d.iv())
			y := d.f64s()
			if d.err != nil {
				break
			}
			if idx < lo || idx >= hi {
				d.fail("vector index %d outside [%d,%d)", idx, lo, hi)
				break
			}
			p.vecs[idx] = y
		}
		out = append(out, p)
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("sigcalc boundary: %w", err)
	}
	return out, nil
}

// sigCalcBoundary is the rebuilt sigcalc boundary of one pass: replay
// calculators over the recorded vectors plus the packet states as the
// thrive stage expects them.
type sigCalcBoundary struct {
	calcs  []*peaks.Calculator
	states []*thrive.PacketState
}

func buildSigCalc(pkts []sigCalcPacket, demod *lora.Demodulator) (*sigCalcBoundary, error) {
	n := demod.Params().N()
	b := &sigCalcBoundary{}
	for i, p := range pkts {
		for idx, y := range p.vecs {
			if len(y) != n {
				return nil, fmt.Errorf("sigcalc boundary: packet %d symbol %d has %d bins, want %d", i, idx, len(y), n)
			}
		}
		// Downstream stages read every preamble vector (history bootstrap,
		// SNR) and, for unknown packets, every data vector. Missing ones
		// would panic the replay calculator, so reject them here — a valid
		// recorder always captures them.
		lo, hi := peaks.SymbolRange(p.numData)
		if p.known {
			hi = 0
		}
		for idx := lo; idx < hi; idx++ {
			if _, ok := p.vecs[idx]; !ok {
				return nil, fmt.Errorf("sigcalc boundary: packet %d is missing the vector of symbol %d", i, idx)
			}
		}
		calc := peaks.NewReplayCalculator(demod, p.start, p.cfo, p.numData, p.vecs)
		st := thrive.NewPacketState(i, calc)
		st.Known = p.known
		if len(p.knownShifts) > 0 {
			st.KnownShifts = p.knownShifts
		}
		if p.hasPrior {
			st.PriorHeights = p.prior
			if st.PriorHeights == nil {
				st.PriorHeights = []float64{}
			}
		}
		b.calcs = append(b.calcs, calc)
		b.states = append(b.states, st)
	}
	return b, nil
}

// encodeThrive serializes the thrive boundary: each packet's assignment
// (chosen bin, height, runner-up per symbol).
func encodeThrive(w *Window) []byte {
	var e payloadEnc
	e.uv(uint64(len(w.States)))
	for _, st := range w.States {
		a := st.Assignment()
		e.ints(a.Assigned)
		e.f64s(a.Heights)
		e.ints(a.Alternates)
	}
	return e.b
}

// parseThrive decodes a thrive boundary into per-packet assignments.
func parseThrive(payload []byte) ([]thrive.Assignment, error) {
	d := payloadDec{b: payload}
	n := int(d.uv())
	var out []thrive.Assignment
	for i := 0; i < n && d.err == nil; i++ {
		a := thrive.Assignment{
			Assigned:   d.ints(),
			Heights:    d.f64s(),
			Alternates: d.ints(),
		}
		out = append(out, a)
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("thrive boundary: %w", err)
	}
	return out, nil
}

// applyThrive copies a recorded thrive boundary onto states rebuilt from
// the matching sigcalc boundary.
func applyThrive(assigns []thrive.Assignment, states []*thrive.PacketState) error {
	if len(assigns) != len(states) {
		return fmt.Errorf("thrive boundary: %d packets, sigcalc boundary has %d", len(assigns), len(states))
	}
	for i, a := range assigns {
		nd := states[i].Calc.NumData()
		if len(a.Assigned) != nd || len(a.Heights) != nd || len(a.Alternates) != nd {
			return fmt.Errorf("thrive boundary: packet %d has %d/%d/%d entries, want %d data symbols",
				i, len(a.Assigned), len(a.Heights), len(a.Alternates), nd)
		}
		copy(states[i].Assigned, a.Assigned)
		copy(states[i].Heights, a.Heights)
		copy(states[i].Alternates, a.Alternates)
	}
	return nil
}

// encodeBEC serializes the bec boundary: per attempted packet, the decode
// outcome plus the re-encoded true shifts that feed pass-2 masking. The
// per-packet obs trace is deliberately excluded — replay runs untraced and
// must still match byte-for-byte.
func encodeBEC(w *Window) []byte {
	var e payloadEnc
	e.uv(uint64(len(w.RetryIdx)))
	for j, i := range w.RetryIdx {
		res := w.Results[j]
		st := w.States[i]
		e.iv(int64(i))
		e.bool(res.OK)
		e.bool(st.Known)
		e.ints(st.KnownShifts)
		if !res.OK {
			continue
		}
		dec := res.Dec
		e.bytes(dec.Payload)
		e.iv(int64(dec.Header.PayloadLen))
		e.iv(int64(dec.Header.CR))
		e.bool(dec.Header.HasCRC)
		e.f64(dec.Start)
		e.f64(dec.CFOCycles)
		e.f64(dec.SNRdB)
		e.iv(int64(dec.Rescued))
		e.iv(int64(dec.Pass))
		e.iv(int64(dec.DataSymbols))
		e.f64(dec.AirtimeSec)
	}
	return e.b
}

// BECOutcome is one decoded bec boundary entry: the decode verdict of one
// detection, plus the re-encoded true shifts pass-2 masking consumes.
type BECOutcome struct {
	DetIdx      int
	OK          bool
	Known       bool
	KnownShifts []int
	Dec         Decoded
}

func decodeBEC(payload []byte) ([]BECOutcome, error) {
	d := payloadDec{b: payload}
	n := int(d.uv())
	var out []BECOutcome
	for j := 0; j < n && d.err == nil; j++ {
		o := BECOutcome{
			DetIdx:      int(d.iv()),
			OK:          d.bool(),
			Known:       d.bool(),
			KnownShifts: d.ints(),
		}
		if o.OK {
			o.Dec = Decoded{
				Payload: d.bytes(),
				Header: lora.Header{
					PayloadLen: int(d.iv()),
					CR:         int(d.iv()),
					HasCRC:     d.bool(),
				},
				Start:       d.f64(),
				CFOCycles:   d.f64(),
				SNRdB:       d.f64(),
				Rescued:     int(d.iv()),
				Pass:        int(d.iv()),
				DataSymbols: int(d.iv()),
				AirtimeSec:  d.f64(),
			}
		}
		out = append(out, o)
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("bec boundary: %w", err)
	}
	return out, nil
}

func decodeSamples(payload []byte) ([][]complex128, error) {
	d := payloadDec{b: payload}
	n := d.sliceLen(1)
	ants := make([][]complex128, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		ants = append(ants, d.c128s())
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("samples record: %w", err)
	}
	if len(ants) == 0 || len(ants[0]) == 0 {
		return nil, fmt.Errorf("samples record: empty trace")
	}
	for _, a := range ants[1:] {
		if len(a) != len(ants[0]) {
			return nil, fmt.Errorf("samples record: antenna length mismatch")
		}
	}
	return ants, nil
}
