package stagegraph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"tnb/internal/detect"
	"tnb/internal/lora"
	"tnb/internal/thrive"
)

// ErrConcurrentUse reports a Replay or ReplayChain call while another is in
// flight on the same Recording. A Recording caches the replay pipeline and
// its arenas between calls (same convention as stream.Player and the
// netserver shards), so the handle is single-flight by design.
var ErrConcurrentUse = errors.New("stagegraph: recording handle already in use")

// RecordedPass holds the stage boundaries captured for one decoding pass of
// one window.
type RecordedPass struct {
	// Pass is 1 or 2.
	Pass int
	// Boundaries maps a stage name to its recorded output payload.
	Boundaries map[string][]byte
}

// Stages returns the pass's recorded boundaries in pipeline order.
func (rp *RecordedPass) Stages() []string {
	var out []string
	for _, b := range boundaries {
		if _, ok := rp.Boundaries[b.stage.Name()]; ok {
			out = append(out, b.stage.Name())
		}
	}
	return out
}

// Detections decodes the pass's detect boundary.
func (rp *RecordedPass) Detections() ([]detect.Packet, error) {
	payload, ok := rp.Boundaries[StageDetect]
	if !ok {
		return nil, fmt.Errorf("stagegraph: pass %d has no detect boundary", rp.Pass)
	}
	return decodeDetect(payload)
}

// Outcomes decodes the pass's bec boundary.
func (rp *RecordedPass) Outcomes() ([]BECOutcome, error) {
	payload, ok := rp.Boundaries[StageBEC]
	if !ok {
		return nil, fmt.Errorf("stagegraph: pass %d has no bec boundary", rp.Pass)
	}
	return decodeBEC(payload)
}

// RecordedWindow is one decode window of a recording: the raw samples plus
// the boundaries of each pass run over them.
type RecordedWindow struct {
	Antennas [][]complex128
	Passes   []*RecordedPass
}

// pass returns the recorded pass with the given number, or nil.
func (rw *RecordedWindow) pass(n int) *RecordedPass {
	for _, rp := range rw.Passes {
		if rp.Pass == n {
			return rp
		}
	}
	return nil
}

// Recording is a parsed stage recording: a replay handle over the windows
// and boundaries a Recorder captured. It reuses one pipeline (engine,
// calculator arenas) across Replay calls and is therefore not safe for
// concurrent use; concurrent calls fail with ErrConcurrentUse.
type Recording struct {
	Header  RecHeader
	Windows []*RecordedWindow

	inUse       atomic.Bool
	pipe        *Pipeline
	pipeWorkers int
}

// ParseRecording parses and validates a recording. Every known record type
// is decoded (boundary payloads included), so corruption anywhere in the
// file surfaces here rather than mid-replay; unknown record names are
// skipped for forward compatibility. It never panics on hostile input —
// the contract FuzzStageRecordDecode pins.
func ParseRecording(data []byte) (*Recording, error) {
	rr, err := newRecordReader(data)
	if err != nil {
		return nil, err
	}
	name, payload, err := rr.next()
	if err != nil {
		return nil, fmt.Errorf("stagegraph: reading header record: %w", err)
	}
	if name != recNameHeader {
		return nil, fmt.Errorf("stagegraph: first record is %q, want %q", name, recNameHeader)
	}
	rec := &Recording{}
	if err := json.Unmarshal(payload, &rec.Header); err != nil {
		return nil, fmt.Errorf("stagegraph: header record: %w", err)
	}
	if rec.Header.Version < 1 || rec.Header.Version > recVersion {
		return nil, fmt.Errorf("stagegraph: recording version %d not supported (max %d)", rec.Header.Version, recVersion)
	}
	if rec.Header.ListDecodeBudget != 0 {
		return nil, fmt.Errorf("stagegraph: header record: ListDecodeBudget %d not supported (the budget is fixed at %d)",
			rec.Header.ListDecodeBudget, listDecodeBudget)
	}
	p, err := lora.NewParams(rec.Header.SF, rec.Header.CR, rec.Header.Bandwidth, rec.Header.OSF)
	if err != nil {
		return nil, fmt.Errorf("stagegraph: header record: %w", err)
	}
	if rec.Header.LDRO != p.LDRO() {
		return nil, fmt.Errorf("stagegraph: header record: LDRO %v not supported (SF %d at %g Hz sets it %v)",
			rec.Header.LDRO, p.SF, p.Bandwidth, p.LDRO())
	}

	var curWin *RecordedWindow
	var curPass *RecordedPass
	for {
		name, payload, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch name {
		case recNameHeader:
			return nil, errors.New("stagegraph: duplicate header record")
		case recNameSamples:
			ants, err := decodeSamples(payload)
			if err != nil {
				return nil, err
			}
			curWin = &RecordedWindow{Antennas: ants}
			curPass = nil
			rec.Windows = append(rec.Windows, curWin)
		case recNamePass:
			d := payloadDec{b: payload}
			pass := int(d.uv())
			if err := d.finish(); err != nil {
				return nil, fmt.Errorf("pass record: %w", err)
			}
			if pass != 1 && pass != 2 {
				return nil, fmt.Errorf("stagegraph: pass record with pass %d", pass)
			}
			if curWin == nil {
				return nil, errors.New("stagegraph: pass record before any samples record")
			}
			if curWin.pass(pass) != nil {
				return nil, fmt.Errorf("stagegraph: duplicate pass %d in window %d", pass, len(rec.Windows)-1)
			}
			curPass = &RecordedPass{Pass: pass, Boundaries: map[string][]byte{}}
			curWin.Passes = append(curWin.Passes, curPass)
		default:
			b := boundaryFor(name)
			if b == nil {
				// Unknown record from a newer writer: skip.
				continue
			}
			if curPass == nil {
				return nil, fmt.Errorf("stagegraph: %s boundary before any pass record", name)
			}
			if _, dup := curPass.Boundaries[name]; dup {
				return nil, fmt.Errorf("stagegraph: duplicate %s boundary in pass %d", name, curPass.Pass)
			}
			if err := b.check(payload); err != nil {
				return nil, err
			}
			curPass.Boundaries[name] = payload
		}
	}
	return rec, nil
}

// LoadRecording reads and parses a recording file.
func LoadRecording(path string) (*Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseRecording(data)
}

// ReplayOptions selects what to replay.
type ReplayOptions struct {
	// Window indexes Recording.Windows.
	Window int
	// Pass is the decoding pass (1 or 2); 0 means 1.
	Pass int
	// Stage is the boundary to re-run (StageDetect..StageBEC).
	Stage string
	// Workers is the pipeline width for the replayed stage; 0 uses
	// GOMAXPROCS. Boundaries are worker-count-invariant, so any value
	// must produce the same diff.
	Workers int
}

// StageDiff is the outcome of replaying one stage against its recording.
type StageDiff struct {
	Window, Pass int
	Stage        string
	// Match reports whether the replayed boundary is byte-identical to
	// the recorded one.
	Match bool
	// Recorded and Replayed are the two boundary payloads.
	Recorded, Replayed []byte
}

// String renders the diff verdict for logs and the tnbreplay CLI.
func (d *StageDiff) String() string {
	if d.Match {
		return fmt.Sprintf("window %d pass %d %s: match (%d bytes)", d.Window, d.Pass, d.Stage, len(d.Recorded))
	}
	off := -1
	n := min(len(d.Recorded), len(d.Replayed))
	for i := 0; i < n; i++ {
		if d.Recorded[i] != d.Replayed[i] {
			off = i
			break
		}
	}
	if off < 0 {
		off = n
	}
	return fmt.Sprintf("window %d pass %d %s: MISMATCH (recorded %d bytes, replayed %d bytes, first difference at byte %d)",
		d.Window, d.Pass, d.Stage, len(d.Recorded), len(d.Replayed), off)
}

// Replay re-runs one recorded stage — the real stage implementation over
// the boundary inputs reconstructed from the recording — and diffs its
// output against the recorded boundary. A clean refactor of a stage leaves
// every diff empty; a divergent end-to-end golden bisects to the first
// stage whose diff is not.
func (rec *Recording) Replay(opt ReplayOptions) (*StageDiff, error) {
	if !rec.inUse.CompareAndSwap(false, true) {
		return nil, ErrConcurrentUse
	}
	defer rec.inUse.Store(false)
	return rec.replayLocked(opt)
}

// ReplayChain replays every recorded boundary of every window and pass in
// pipeline order — the recording-wide differential check.
func (rec *Recording) ReplayChain(workers int) ([]*StageDiff, error) {
	if !rec.inUse.CompareAndSwap(false, true) {
		return nil, ErrConcurrentUse
	}
	defer rec.inUse.Store(false)
	var diffs []*StageDiff
	for wi, rw := range rec.Windows {
		for _, rp := range rw.Passes {
			for _, stage := range rp.Stages() {
				d, err := rec.replayLocked(ReplayOptions{Window: wi, Pass: rp.Pass, Stage: stage, Workers: workers})
				if err != nil {
					return diffs, err
				}
				diffs = append(diffs, d)
			}
		}
	}
	return diffs, nil
}

func (rec *Recording) replayLocked(opt ReplayOptions) (*StageDiff, error) {
	if opt.Pass == 0 {
		opt.Pass = 1
	}
	if opt.Window < 0 || opt.Window >= len(rec.Windows) {
		return nil, fmt.Errorf("stagegraph: window %d out of range [0,%d)", opt.Window, len(rec.Windows))
	}
	rw := rec.Windows[opt.Window]
	rp := rw.pass(opt.Pass)
	if rp == nil {
		return nil, fmt.Errorf("stagegraph: window %d has no pass %d", opt.Window, opt.Pass)
	}
	recorded, ok := rp.Boundaries[opt.Stage]
	if !ok {
		return nil, fmt.Errorf("stagegraph: window %d pass %d has no %s boundary (stages: %v)", opt.Window, opt.Pass, opt.Stage, rp.Stages())
	}

	p := rec.pipeline(opt.Workers)
	w, err := windowBefore(rw, rp, opt, p.demod)
	if err != nil {
		return nil, err
	}
	if opt.Stage == StageSigCalc {
		// A pass-1 sigcalc run rewinds the calculator pool itself; rewind
		// here too for pass 2, where each replay draws fresh calculators
		// that nothing retains between calls.
		p.calcs.Rewind()
	}
	b := boundaryFor(opt.Stage)
	b.stage.Run(p, w)
	replayed := b.encode(w)
	return &StageDiff{
		Window:   opt.Window,
		Pass:     opt.Pass,
		Stage:    opt.Stage,
		Match:    bytes.Equal(recorded, replayed),
		Recorded: recorded,
		Replayed: replayed,
	}, nil
}

// pipeline returns the cached replay pipeline, rebuilt when the requested
// worker width changes.
func (rec *Recording) pipeline(workers int) *Pipeline {
	if rec.pipe == nil || rec.pipeWorkers != workers {
		cfg := rec.Header.Config()
		cfg.Workers = workers
		rec.pipe = New(cfg)
		rec.pipeWorkers = workers
	}
	return rec.pipe
}

// windowBefore reconstructs the window exactly as it stood when the target
// stage ran: every upstream boundary of the same pass is loaded from the
// recording, and for pass 2 the pass-1 thrive and bec boundaries supply the
// prior states and decoded set the real pipeline would have carried over.
// demod backs the replay calculators rebuilt from the sigcalc boundary.
func windowBefore(rw *RecordedWindow, rp *RecordedPass, opt ReplayOptions, demod *lora.Demodulator) (*Window, error) {
	if opt.Stage == StageDetect {
		if opt.Pass != 1 {
			return nil, errors.New("stagegraph: detect only runs in pass 1")
		}
		return &Window{Antennas: rw.Antennas, Pass: 1}, nil
	}

	pass1 := rw.pass(1)
	if pass1 == nil {
		return nil, fmt.Errorf("stagegraph: window has no pass 1 (needed for detections)")
	}
	pkts, err := pass1.Detections()
	if err != nil {
		return nil, err
	}
	w := &Window{
		Antennas: rw.Antennas,
		TraceLen: len(rw.Antennas[0]),
		Pass:     opt.Pass,
		Pkts:     pkts,
	}
	if opt.Pass == 2 {
		w.DecodedIdx, w.Prior, err = priorFromPass1(pass1, len(pkts))
		if err != nil {
			return nil, err
		}
	}
	if opt.Stage == StageSigCalc {
		return w, nil
	}

	sigPkts, err := parseSigCalc(rp.Boundaries[StageSigCalc])
	if err != nil {
		return nil, err
	}
	sb, err := buildSigCalc(sigPkts, demod)
	if err != nil {
		return nil, err
	}
	if len(sb.states) != len(pkts) {
		return nil, fmt.Errorf("stagegraph: sigcalc boundary has %d packets, detect boundary %d", len(sb.states), len(pkts))
	}
	w.Calcs, w.States = sb.calcs, sb.states
	if opt.Stage == StageThrive {
		return w, nil
	}

	assigns, err := parseThrive(rp.Boundaries[StageThrive])
	if err != nil {
		return nil, err
	}
	if err := applyThrive(assigns, w.States); err != nil {
		return nil, err
	}
	return w, nil
}

// priorFromPass1 rebuilds the pass-2 carry-over from the pass-1 thrive and
// bec boundaries: which detections decoded, their re-encoded true shifts,
// and the peak heights every failed packet observed.
func priorFromPass1(pass1 *RecordedPass, npkts int) (map[int]bool, []*thrive.PacketState, error) {
	tPayload, ok := pass1.Boundaries[StageThrive]
	if !ok {
		return nil, nil, errors.New("stagegraph: pass 1 has no thrive boundary (needed for pass-2 priors)")
	}
	assigns, err := parseThrive(tPayload)
	if err != nil {
		return nil, nil, err
	}
	outs, err := pass1.Outcomes()
	if err != nil {
		return nil, nil, err
	}
	if len(assigns) != npkts {
		return nil, nil, fmt.Errorf("stagegraph: pass-1 thrive boundary has %d packets, detect boundary %d", len(assigns), npkts)
	}
	decoded := map[int]bool{}
	prior := make([]*thrive.PacketState, npkts)
	for i, a := range assigns {
		prior[i] = &thrive.PacketState{ID: i, Heights: a.Heights}
	}
	for _, o := range outs {
		if o.DetIdx < 0 || o.DetIdx >= npkts {
			return nil, nil, fmt.Errorf("stagegraph: pass-1 bec boundary indexes detection %d of %d", o.DetIdx, npkts)
		}
		if o.OK {
			decoded[o.DetIdx] = true
		}
		prior[o.DetIdx].Known = o.Known
		if len(o.KnownShifts) > 0 {
			prior[o.DetIdx].KnownShifts = o.KnownShifts
		}
	}
	return decoded, prior, nil
}
