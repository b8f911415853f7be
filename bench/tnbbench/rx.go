package main

import (
	"bytes"
	"math"
	"runtime"
	"time"

	"tnb/internal/detect"
	"tnb/internal/lora"
	"tnb/internal/metrics"
	"tnb/internal/obs"
	"tnb/internal/sim"
	"tnb/internal/stagegraph"
	"tnb/internal/stream"
	"tnb/internal/trace"
)

// rxSize shapes an rx-* workload: distinct traces of duration seconds
// each, with Indoor-deployment SF 8 / CR 4 / OSF 8 traffic of 14-byte
// payloads at load packets per second (sim.Generate, the paper's §8
// setup). A run of S seconds generates and decodes S/secondsPerTrace
// traces, one at a time; secondsPerTrace is what generating and decoding
// one trace takes on a 2-CPU host.
type rxSize struct {
	duration        float64
	load            float64
	secondsPerTrace float64
}

var (
	// rxDense is the paper's highest load: collisions make detect-refine
	// and Thrive the work, and the masked second pass runs.
	rxDense = rxSize{duration: 4, load: 25, secondsPerTrace: 2}
	// rxSparse is the near collision-free control for the scan and stream path:
	// its load, far below the paper's 5–25 pkt/s sweep, was chosen so that
	// Thrive and BEC sit idle and the preamble scan and the streamer's own
	// work are most of the time. It is not a load measured on a gateway.
	rxSparse = rxSize{duration: 8, load: 0.5, secondsPerTrace: 0.3}
)

// chunkSamples is the gateway's read size: the streamer is fed the chunks
// a live connection would hand it.
const chunkSamples = 1 << 16

// rxTrace is one generated capture and its ground truth.
type rxTrace struct {
	iq        []complex128
	recs      []trace.TxRecord
	byPayload map[string]int // payloads are unique per trace (node, sequence)
}

// rxInput generates the workload's traces; trace i of a seed is always the
// same capture.
type rxInput struct {
	sz   rxSize
	seed int64
	p    lora.Params
	cfg  stream.Config
	log  feedLog
}

func (in *rxInput) trace(i int) (*rxTrace, error) {
	gt, err := sim.Generate(sim.Config{
		Deployment: sim.Indoor, SF: 8, CR: 4,
		LoadPktPerSec: in.sz.load, DurationSec: in.sz.duration,
		Seed: in.seed*1_000_003 + int64(i),
	}, 1)
	if err != nil {
		return nil, err
	}
	tr := &rxTrace{iq: gt.Trace.Antennas[0], recs: gt.Records, byPayload: map[string]int{}}
	for k, r := range gt.Records {
		tr.byPayload[string(r.Payload)] = k
	}
	if in.log.starts == nil {
		// The first trace fixes the radio parameters (every trace has the
		// same) and sizes the feed log.
		in.p = gt.Params
		// The gateway's receiver configuration, on one worker.
		in.cfg = stream.Config{Receiver: stagegraph.Config{Params: in.p, UseBEC: true, Workers: 1}}
		in.log.reserve(len(tr.iq), len(tr.recs))
	}
	return tr, nil
}

// feedLog records one pass of a trace through a streamer: the start and
// end of every Feed/Flush call and what each returned.
type feedLog struct {
	starts, ends []time.Time
	outs         []fedDecode
	wall, cpu    float64
}

type fedDecode struct {
	call int
	d    stream.Decoded
}

func (l *feedLog) reserve(samples, frames int) {
	calls := samples/chunkSamples + 2
	l.starts = make([]time.Time, 0, calls)
	l.ends = make([]time.Time, 0, calls)
	l.outs = make([]fedDecode, 0, 2*frames+16)
}

// feed streams tr through st in gateway-sized chunks and then flushes it.
// Only the Feed and Flush calls are timed; the log is preallocated so the
// harness allocates next to nothing inside them. after, when non-nil, runs
// after each call, outside the timing, with the number of samples fed.
func (in *rxInput) feed(st *stream.Streamer, tr *rxTrace, after func(fed int)) error {
	l := &in.log
	l.starts, l.ends, l.outs = l.starts[:0], l.ends[:0], l.outs[:0]
	l.wall, l.cpu = 0, 0
	for off := 0; off < len(tr.iq); off += chunkSamples {
		end := min(off+chunkSamples, len(tr.iq))
		c0, t0 := cpuSeconds(), time.Now()
		ds, err := st.Feed(tr.iq[off:end])
		l.record(c0, t0, ds)
		if err != nil {
			return err
		}
		if after != nil {
			after(end)
		}
	}
	c0, t0 := cpuSeconds(), time.Now()
	ds, err := st.Flush()
	l.record(c0, t0, ds)
	if after != nil {
		after(len(tr.iq))
	}
	return err
}

func (l *feedLog) record(c0 float64, t0 time.Time, ds []stream.Decoded) {
	t1 := time.Now()
	l.cpu += cpuSeconds() - c0
	l.wall += t1.Sub(t0).Seconds()
	for _, d := range ds {
		l.outs = append(l.outs, fedDecode{call: len(l.starts), d: d})
	}
	l.starts = append(l.starts, t0)
	l.ends = append(l.ends, t1)
}

// rxScore accumulates the outcome of the traces fed so far.
type rxScore struct {
	frames, delivered, unmatched int
	lat                          []float64
}

// score checks every decode of the last feed against the trace's ground
// truth: it must carry a transmitted payload at that packet's start (within
// one symbol), at most once. Latency runs from the start of the Feed call
// that delivered the frame's last sample to the end of the call that
// returned the frame.
func (in *rxInput) score(tr *rxTrace, s *rxScore) {
	l := &in.log
	tol := float64(in.p.SymbolSamples())
	seen := make([]bool, len(tr.recs))
	s.frames += len(tr.recs)
	for _, o := range l.outs {
		k, ok := tr.byPayload[string(o.d.Payload)]
		if !ok || seen[k] || math.Abs(o.d.AbsStart-tr.recs[k].StartSample) > tol {
			s.unmatched++
			continue
		}
		seen[k] = true
		s.delivered++
		last := (int(math.Ceil(tr.recs[k].EndSample())) - 1) / chunkSamples
		s.lat = append(s.lat, l.ends[o.call].Sub(l.starts[last]).Seconds())
	}
}

// score fills the contract's accounting from the traces fed.
func (rep *report) score(s *rxScore) {
	rep.attempted = s.frames
	rep.delivered = s.delivered
	rep.failed = s.frames - s.delivered + s.unmatched
	if s.unmatched > 0 {
		rep.problem("%d decodes match no transmitted packet (or repeat one)", s.unmatched)
	}
	rep.detail["unmatched"] = s.unmatched
	rep.detail["latency_samples"] = len(s.lat)
}

func runRX(o options, sz rxSize) (*report, error) {
	in := &rxInput{sz: sz, seed: o.seed}
	type first struct {
		tr *rxTrace
		st *stream.Streamer
	}
	// Set-up builds what the first trace needs: its capture and a receiver.
	f, setup, err := setUp(func() (first, func(), error) {
		tr, err := in.trace(0)
		if err != nil {
			return first{}, nil, err
		}
		st, err := stream.New(in.cfg)
		return first{tr, st}, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	n := max(1, int(math.Round(o.seconds/sz.secondsPerTrace)))
	rep := &report{detail: map[string]any{"traces": n}}
	if o.trace {
		if err := in.traced(rep, max(1, n/5), f.tr); err != nil {
			return nil, err
		}
		return rep, nil
	}
	var cpu float64
	var alloc uint64
	s := &rxScore{}
	for i := 0; i < n; i++ {
		tr, st := f.tr, f.st
		if i > 0 {
			if tr, err = in.trace(i); err != nil {
				return nil, err
			}
			if st, err = stream.New(in.cfg); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var sec section
		sec.start()
		err := in.feed(st, tr, nil)
		sec.stop()
		if err != nil {
			return nil, err
		}
		cpu += in.log.cpu
		alloc += sec.alloc
		in.score(tr, s)
	}
	rep.score(s)
	rep.metrics = endToEndMetrics(setup, rep.prr(), []repStats{newRepStats(s.frames, cpu, alloc, s.lat)}, false)
	return rep, nil
}

// timedStage times a stagegraph stage from outside: the harness's span
// around the exported stage's Run.
type timedStage struct {
	stagegraph.Stage
	total *time.Duration
}

func (s timedStage) Run(p *stagegraph.Pipeline, w *stagegraph.Window) {
	t0 := time.Now()
	s.Stage.Run(p, w)
	*s.total += time.Since(t0)
}

// replica re-runs the receiver as an explicit stage graph with a span
// around every stage, on the windows the streamer cuts, and checks each
// window against Pipeline.DecodeSamples.
type replica struct {
	cfg          stagegraph.Config
	p, ref       *stagegraph.Pipeline
	pass1, pass2 *stagegraph.Graph
	buf          []complex128     // the window being decoded, as the streamer buffers it
	stage        [4]time.Duration // pass 1: detect, sigcalc, thrive, bec
	pass2Time    time.Duration
	pass2Decoded int
	windows      int
	samples      int
}

func newReplica(cfg stagegraph.Config) *replica {
	r := &replica{cfg: cfg, ref: stagegraph.New(cfg)}
	r.pass1 = stagegraph.NewGraph(
		timedStage{stagegraph.DetectStage{}, &r.stage[0]},
		timedStage{stagegraph.SigCalcStage{}, &r.stage[1]},
		timedStage{stagegraph.ThriveStage{}, &r.stage[2]},
		timedStage{stagegraph.BECStage{}, &r.stage[3]},
	)
	r.pass2 = stagegraph.NewGraph(stagegraph.SigCalcStage{}, stagegraph.ThriveStage{}, stagegraph.BECStage{})
	return r
}

// fresh starts a trace on a new pipeline, as each trace's streamer does,
// so the replica pays the same first-window costs.
func (r *replica) fresh() { r.p = stagegraph.New(r.cfg) }

// load copies a window into the replica's buffer, as the streamer copies
// its input into its own, so both decode from memory just written.
func (r *replica) load(win []complex128) []complex128 {
	r.buf = append(r.buf[:0], win...)
	return r.buf
}

// decode is Pipeline.DecodeSamples rebuilt from the exported stages and
// Window fields: pass 1 over the full graph, then — when pass 1 decoded
// some but not all detections — the masked second pass.
func (r *replica) decode(win []complex128) []stagegraph.Decoded {
	r.windows++
	r.samples += len(win)
	w := &stagegraph.Window{Antennas: [][]complex128{win}, Pass: 1}
	r.pass1.Run(r.p, w)
	if len(w.Pkts) == 0 {
		return nil
	}
	var out []stagegraph.Decoded
	decoded := map[int]bool{}
	for i, res := range w.Results {
		if res.OK {
			out = append(out, res.Dec)
			decoded[i] = true
		}
	}
	if len(decoded) == 0 || len(decoded) == len(w.States) {
		return out
	}
	w2 := &stagegraph.Window{
		Antennas: w.Antennas, TraceLen: w.TraceLen, Pass: 2, ObsWindow: w.ObsWindow,
		Pkts: w.Pkts, DecodedIdx: decoded, Prior: w.States,
	}
	t0 := time.Now()
	r.pass2.Run(r.p, w2)
	r.pass2Time += time.Since(t0)
	for j := range w2.RetryIdx {
		if w2.Results[j].OK {
			out = append(out, w2.Results[j].Dec)
			r.pass2Decoded++
		}
	}
	return out
}

// sameDecodes reports whether two decode lists are identical.
func sameDecodes(a, b []stagegraph.Decoded) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Payload, b[i].Payload) || a[i].Start != b[i].Start ||
			a[i].Pass != b[i].Pass || a[i].Header != b[i].Header {
			return false
		}
	}
	return true
}

// detectCounter counts the detector's candidate verdicts from its trace
// records: every candidate emits one detect record, accepted ones with an
// empty reason.
type detectCounter struct{ candidates, accepted int }

func (c *detectCounter) Append(_ []byte, m obs.RecordMeta) {
	if m.Type == obs.TypeDetect {
		c.candidates++
		if m.Reason == "" {
			c.accepted++
		}
	}
}

// windows calls fn on every window the streamer decodes for n samples:
// full windows of w+ov samples every w samples, then the flushed tail.
func windows(n, w, ov int, fn func(lo, hi int)) {
	base := 0
	for ; base+w+ov <= n; base += w {
		fn(base, base+w+ov)
	}
	if base < n {
		fn(base, n)
	}
}

// minStageSeconds is the least stage time the replica check compares: below
// it, timer and scheduler noise alone can exceed the check's 10%.
const minStageSeconds = 0.5

// checkStageSums checks the traced streamer's time split: its stage
// histograms (own) must fit inside its Feed/Flush wall time, and the
// replica's stage spans must add up to own within 10%.
func checkStageSums(rep *report, wall, own, replica float64) {
	if own > wall {
		rep.problem("the streamer's stage histograms sum to %.3f s, more than its %.3f s in Feed/Flush", own, wall)
	}
	if own >= minStageSeconds && math.Abs(replica-own) > 0.1*own {
		rep.problem("the replica's stages took %.3f s, the streamer's own stages %.3f s: more than 10%% apart", replica, own)
	}
}

// traced decodes the first n traces four ways: through an untraced
// streamer, through a streamer with its own stream and pipeline metrics on
// and spans around Feed/Flush, through the stage-graph replica on the
// windows the streamer cuts, and through a standalone detector on the same
// windows.
func (in *rxInput) traced(rep *report, n int, tr0 *rxTrace) error {
	reg := metrics.NewRegistry()
	smet := stream.NewMetrics(reg)
	pm := stagegraph.NewPipelineMetrics(reg)
	rpl := newReplica(in.cfg.Receiver)
	var cnt detectCounter
	det := detect.NewDetector(in.p)
	det.Workers = 1
	det.Trace = obs.New(obs.Options{Spill: &cnt})
	var scan, refine time.Duration
	var untracedCPU, untracedWall, tracedCPU, tracedWall float64
	fed := 0
	s := &rxScore{}
	order := []bool{false, true} // traced?
	for i := 0; i < n; i++ {
		tr := tr0
		if i > 0 {
			var err error
			if tr, err = in.trace(i); err != nil {
				return err
			}
		}
		fed += len(tr.iq)
		// Alternate which streamer goes first, so neither always inherits
		// the other's garbage.
		order[0], order[1] = order[1], order[0]
		var wins [][2]int
		var got [][]stagegraph.Decoded
		for _, traced := range order {
			cfg := in.cfg
			if traced {
				cfg.Metrics, cfg.Receiver.Metrics = smet, pm
			}
			st, err := stream.New(cfg)
			if err != nil {
				return err
			}
			var after func(int)
			if traced {
				// The replica decodes each window right after the streamer
				// has, so a change in host speed hits both alike.
				wins = wins[:0]
				windows(len(tr.iq), st.WindowSamples(), st.OverlapSamples(), func(lo, hi int) {
					wins = append(wins, [2]int{lo, hi})
				})
				rpl.fresh()
				after = func(fed int) {
					for len(got) < len(wins) && wins[len(got)][1] <= fed {
						win := wins[len(got)]
						got = append(got, rpl.decode(rpl.load(tr.iq[win[0]:win[1]])))
					}
				}
			}
			runtime.GC()
			if err := in.feed(st, tr, after); err != nil {
				return err
			}
			if !traced {
				untracedCPU += in.log.cpu
				untracedWall += in.log.wall
				in.score(tr, s)
			} else {
				tracedCPU += in.log.cpu
				tracedWall += in.log.wall
			}
		}
		for k, win := range wins {
			w := [][]complex128{rpl.load(tr.iq[win[0]:win[1]])}
			if !sameDecodes(got[k], rpl.ref.DecodeSamples(w)) {
				rep.problem("stage replica and DecodeSamples disagree on trace %d window [%d, %d)", i, win[0], win[1])
			}
			det.Detect(w)
			scan += det.ScanStats.Wall
			refine += det.RefineStats.Wall
		}
	}
	if cut := smet.WindowPasses.Value() + smet.Flushes.Value(); uint64(rpl.windows) != cut {
		rep.problem("replica decoded %d windows, the streamer %d", rpl.windows, cut)
	}
	rep.score(s)

	// The streamer's own stage histograms cover its Feed/Flush calls, so
	// what they leave of those calls' wall time is the streamer's self time.
	// The replica's spans split the same work by stage and pass; they must
	// add up to what the streamer's pipeline spent in its stages.
	f := tracedWall
	own := pm.DetectSeconds.Sum() + pm.SigCalcSeconds.Sum() + pm.ThriveSeconds.Sum() + pm.DecodeSeconds.Sum()
	self := f - own
	stages := rpl.stage[0] + rpl.stage[1] + rpl.stage[2] + rpl.stage[3] + rpl.pass2Time
	checkStageSums(rep, f, own, stages.Seconds())
	m := map[string]float64{
		"traced.overhead":       tracedCPU / untracedCPU,
		"stage.detect.share":    rpl.stage[0].Seconds() / f,
		"stage.sigcalc.share":   rpl.stage[1].Seconds() / f,
		"stage.thrive.share":    rpl.stage[2].Seconds() / f,
		"stage.bec.share":       rpl.stage[3].Seconds() / f,
		"stage.pass2.share":     rpl.pass2Time.Seconds() / f,
		"stage.pass2.decoded":   float64(rpl.pass2Decoded),
		"stage.windows":         float64(rpl.windows),
		"detect.scan.share":     scan.Seconds() / f,
		"detect.refine.share":   refine.Seconds() / f,
		"detect.candidates":     float64(cnt.candidates),
		"detect.accepted":       float64(cnt.accepted),
		"stream.self.share":     self / f,
		"stream.redecode_ratio": float64(rpl.samples) / float64(fed),
		"stream.deferred":       float64(smet.DeferredPackets.Value()),
		"stream.dedup":          float64(smet.DedupSuppressed.Value()),
	}
	if cnt.candidates > 0 {
		m["detect.accept_ratio"] = float64(cnt.accepted) / float64(cnt.candidates)
	}
	zeroLayers(m)
	rep.metrics = m
	rep.detail["traced_traces"] = n
	// The replica's stage times plus the streamer's self time, against the
	// untraced streamer's Feed/Flush wall time.
	rep.detail["stages_plus_self_over_untraced"] = (stages.Seconds() + self) / untracedWall
	rep.detail["seconds_abs"] = map[string]float64{
		"untraced_feed": untracedWall, "untraced_feed_cpu": untracedCPU,
		"traced_feed": tracedWall, "traced_feed_cpu": tracedCPU, "traced_feed_stages": own,
		"detect": rpl.stage[0].Seconds(), "sigcalc": rpl.stage[1].Seconds(),
		"thrive": rpl.stage[2].Seconds(), "bec": rpl.stage[3].Seconds(),
		"pass2": rpl.pass2Time.Seconds(), "stream_self": self,
		"detect_scan": scan.Seconds(), "detect_refine": refine.Seconds(),
	}
	return nil
}
