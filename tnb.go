// Package tnb is a Go implementation of TnB (Rathi & Zhang, CoNEXT 2022):
// a LoRa gateway receiver that decodes collided packets. Its two core
// algorithms are Thrive, which assigns demodulation peaks to packets by a
// matching cost built from the symbol boundary, the CFO and the peak-height
// history, and BEC (Block Error Correction), which jointly decodes the
// (8,4) Hamming code over whole code blocks and corrects well beyond the
// default decoder's 1-bit bound.
//
// The package re-exports the pieces a downstream user needs: LoRa frame
// encoding and waveform synthesis, the synthetic trace builder, the TnB
// receiver and its ablations, the comparison baselines, and the experiment
// harness that regenerates the paper's figures.
//
// Quick start:
//
//	params := tnb.Params(8, 4)              // SF 8, CR 4
//	rx := tnb.NewReceiver(tnb.ReceiverConfig{Params: params, UseBEC: true})
//	packets := rx.Decode(trace)             // trace: *tnb.Trace
//
// See examples/ for runnable end-to-end programs.
package tnb

import (
	"math/rand"

	"tnb/internal/baseline"
	"tnb/internal/bec"
	"tnb/internal/lora"
	"tnb/internal/sim"
	"tnb/internal/stagegraph"
	"tnb/internal/thrive"
	"tnb/internal/trace"
)

// Re-exported core types. The aliases keep one import path for users while
// the implementation stays split across internal packages.
type (
	// LoRaParams bundles SF, CR, bandwidth and over-sampling factor.
	LoRaParams = lora.Params
	// Trace is a (possibly multi-antenna) baseband capture.
	Trace = trace.Trace
	// TxRecord is the ground truth of one transmitted packet.
	TxRecord = trace.TxRecord
	// TraceBuilder composes synthetic multi-node traces.
	TraceBuilder = trace.Builder
	// Receiver is the TnB receiver.
	Receiver = stagegraph.Pipeline
	// ReceiverConfig selects the receiver variant.
	ReceiverConfig = stagegraph.Config
	// Decoded is one decoded packet.
	Decoded = stagegraph.Decoded
	// Block is a LoRa code block (rows = codewords).
	Block = lora.Block
	// BECResult is the outcome of BEC block decoding.
	BECResult = bec.Result
	// Experiment configures one evaluation run.
	Experiment = sim.Config
	// ExperimentResult scores one scheme on one run.
	ExperimentResult = sim.Result
	// Scheme identifies a decoder under test.
	Scheme = sim.Scheme
	// Deployment is a testbed node population.
	Deployment = sim.Deployment
)

// Assignment policies (paper §5 and §8.2/§8.4).
const (
	PolicyThrive     = thrive.PolicyThrive
	PolicySibling    = thrive.PolicySibling
	PolicyAlignTrack = thrive.PolicyAlignTrack
)

// Schemes for the experiment harness.
const (
	SchemeTnB           = sim.SchemeTnB
	SchemeThrive        = sim.SchemeThrive
	SchemeSibling       = sim.SchemeSibling
	SchemeAlignTrack    = sim.SchemeAlignTrack
	SchemeAlignTrackBEC = sim.SchemeAlignTrackBEC
	SchemeCIC           = sim.SchemeCIC
	SchemeCICBEC        = sim.SchemeCICBEC
	SchemeLoRaPHY       = sim.SchemeLoRaPHY
	SchemeTnB2Ant       = sim.SchemeTnB2Ant
)

// Params returns the paper's default radio parameters (125 kHz bandwidth,
// OSF 8) for the given spreading factor and coding rate.
func Params(sf, cr int) LoRaParams {
	return lora.MustParams(sf, cr, 125e3, 8)
}

// NewReceiver builds a TnB receiver.
func NewReceiver(cfg ReceiverConfig) *Receiver { return stagegraph.New(cfg) }

// NewTraceBuilder creates a builder for a synthetic trace of the given
// duration (seconds) and antenna count.
func NewTraceBuilder(p LoRaParams, durationSec float64, antennas int, rng *rand.Rand) *TraceBuilder {
	return trace.NewBuilder(p, durationSec, antennas, rng)
}

// Encode maps a payload to its data-symbol chirp shifts.
func Encode(p LoRaParams, payload []byte) ([]int, error) {
	shifts, _, err := lora.Encode(p, payload)
	return shifts, err
}

// DecodeBlockBEC runs BEC on one received code block.
func DecodeBlockBEC(r *Block, cr int) BECResult { return bec.DecodeBlock(r, cr) }

// RunExperiment generates the trace for cfg and scores the scheme on it.
func RunExperiment(cfg Experiment, s Scheme) (ExperimentResult, error) {
	return sim.Run(cfg, s)
}

// NewCICReceiver builds the CIC baseline (optionally with BEC: CIC+).
func NewCICReceiver(p LoRaParams, useBEC bool) *baseline.CIC {
	return baseline.NewCIC(baseline.Config{Params: p, UseBEC: useBEC})
}

// NewLoRaPHYReceiver builds the standard single-user decoder baseline.
func NewLoRaPHYReceiver(p LoRaParams) *baseline.LoRaPHY {
	return baseline.NewLoRaPHY(baseline.Config{Params: p})
}

// Deployments mirror the paper's three testbeds.
var (
	DeploymentIndoor   = sim.Indoor
	DeploymentOutdoor1 = sim.Outdoor1
	DeploymentOutdoor2 = sim.Outdoor2
)
