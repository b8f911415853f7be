// Package stagegraph hosts the TnB receiver pipeline (paper Fig. 3) as an
// explicit stage graph: packet detection, per-packet signal calculation,
// Thrive peak assignment, and BEC decoding are concrete stage nodes wired
// in sequence by a deterministic scheduler. The stage boundaries are typed
// (detect.Packet, peaks.Calculator vectors, thrive.Assignment,
// bec/lora decode outcomes), which is what enables per-stage sharding,
// future async window hand-off, and — via the recording codec in this
// package — replaying any single stage from a recorded boundary snapshot.
//
// Determinism: the scheduler runs the stages of one window strictly in
// graph order, so the stage boundaries are serialization points. Each stage
// may fan out internally over the internal/parallel pool, but every fan-out
// writes into index-addressed slots and merges serially, so the bytes
// crossing each boundary are identical for every worker count. A recording
// taken at width 1 therefore replays byte-identically at any width — the
// property the golden and differential tests in this package pin.
package stagegraph

import (
	"tnb/internal/detect"
	"tnb/internal/peaks"
	"tnb/internal/thrive"
)

// Window is one decode unit flowing through the stage graph: a block of
// samples plus the per-stage products accumulated as the stages run. The
// second decoding pass (paper §4) is a second Window over the same samples
// carrying the first pass's outcome as input.
type Window struct {
	// Antennas and TraceLen are the DetectStage input.
	Antennas [][]complex128
	TraceLen int
	// Pass is 1 or 2 (the masked re-decode of paper §4).
	Pass int
	// ObsWindow is the tracer's window ID, shared by both passes.
	ObsWindow uint64

	// Pkts is the DetectStage output: refined detections in start order.
	Pkts []detect.Packet

	// Calcs and States are the SigCalcStage output: one prefilled
	// signal-vector calculator and one assignment state per detection.
	Calcs  []*peaks.Calculator
	States []*thrive.PacketState

	// DecodedIdx and Prior are pass-2 inputs: which detections pass 1
	// decoded, and the pass-1 states (known shifts, observed heights).
	DecodedIdx map[int]bool
	Prior      []*thrive.PacketState

	// Results is the BECStage output, one slot per detection the stage
	// attempted (pass 2 skips already-decoded packets; RetryIdx maps its
	// result slots back to detection indices).
	Results  []Outcome
	RetryIdx []int
}

// Outcome is one packet's decode attempt crossing the BEC boundary.
type Outcome struct {
	Dec Decoded
	OK  bool
}

// Stage is one node of the receiver graph. Run mutates the window in
// place; the pipeline carries the shared machinery (detector, engine,
// calculator pool, metrics, tracer).
type Stage interface {
	// Name is the stage's boundary label in recordings and replay.
	Name() string
	Run(p *Pipeline, w *Window)
}

// Graph is an ordered stage sequence with a deterministic scheduler.
type Graph struct {
	stages []Stage
}

// NewGraph wires the given stages in order.
func NewGraph(stages ...Stage) *Graph { return &Graph{stages: stages} }

// Run executes the stages of one window in order, snapshotting each stage's
// output boundary into the pipeline's recorder when one is attached. It
// stops early when a stage leaves the window empty (no detections), which
// matches the hard-wired pipeline's early return.
func (g *Graph) Run(p *Pipeline, w *Window) {
	for _, s := range g.stages {
		s.Run(p, w)
		if p.rec != nil {
			p.rec.snapshot(s.Name(), w)
		}
		if len(w.Pkts) == 0 {
			return
		}
	}
}
