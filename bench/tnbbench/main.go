// Command tnbbench is the repository's end-to-end benchmark: it drives the
// TnB gateway stack (stream → stagegraph receiver → gateway → netserver)
// through one of four workloads, checks every output against the ground
// truth it generated, and prints one JSON result line.
//
// Usage (from the repository root, normally through bench/bench.sh):
//
//	tnbbench -workload rx-dense -seed 1 -seconds 20 -trace 0
//
// Inputs are generated in-process from -seed; the timed sections contain
// only calls into the system's public APIs. With -trace 0 the result line
// carries the end-to-end metrics, measured with every instrument off; with
// -trace 1 it carries the per-layer metrics of a traced run instead. The
// line before it is a {"detail": ...} object with the host, the sample
// counts and the absolute per-layer times the shares are built from.
//
// The process exits non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// mirror BENCHMARK.json; TestMetricsMatchBenchmarkJSON keeps them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"prr", "ratio"},
	{"frames_per_cpu_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"alloc_kb_per_frame", "KB"},
}

// Per-layer metrics are emitted by every workload; a layer the workload
// bypasses reports 0. Time spent in a layer is reported as a share of the
// layer group's wall time (see bench/README.md), so no bypassed layer
// reports a time.
var perLayer = []metricDef{
	{"traced.overhead", "ratio"},
	{"stage.detect.share", "ratio"},
	{"stage.sigcalc.share", "ratio"},
	{"stage.thrive.share", "ratio"},
	{"stage.bec.share", "ratio"},
	{"stage.pass2.share", "ratio"},
	{"stage.pass2.decoded", "count"},
	{"stage.windows", "count"},
	{"detect.scan.share", "ratio"},
	{"detect.refine.share", "ratio"},
	{"detect.candidates", "count"},
	{"detect.accepted", "count"},
	{"detect.accept_ratio", "ratio"},
	{"stream.self.share", "ratio"},
	{"stream.redecode_ratio", "ratio"},
	{"stream.deferred", "count"},
	{"stream.dedup", "count"},
	{"gateway.reports", "count"},
	{"gateway.decode_busy", "ratio"},
	{"gateway.send_lag_p95", "ratio"},
	{"gateway.send_lag_max", "ratio"},
	{"netserver.join.share", "ratio"},
	{"netserver.data.share", "ratio"},
	{"netserver.flush.share", "ratio"},
	{"netserver.delivered", "count"},
	{"netserver.dups", "count"},
	{"netserver.drops", "count"},
	{"netserver.dedup_bytes_peak", "bytes"},
	{"tracestore.records", "count"},
	{"tracestore.dropped", "count"},
	{"tracestore.close.share", "ratio"},
}

// setupReps is how many times each workload builds its inputs and servers;
// setup_s is the median.
const setupReps = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tmp      string // scratch root for the trace store
}

// report is what a workload hands back: the contract's accounting, the
// metrics of the requested mode, and the detail line.
type report struct {
	attempted int // frames that should have been delivered
	delivered int // of those delivered, each once
	failed    int // of those not delivered, plus deliveries matching nothing sent
	problems  []string
	metrics   map[string]float64
	detail    map[string]any
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// prr is the packet reception ratio: frames delivered ÷ frames that should
// have been.
func (r *report) prr() float64 { return float64(r.delivered) / float64(r.attempted) }

// workloads maps each name to its runner at the benchmark's sizes.
var workloads = map[string]func(options) (*report, error){
	"rx-dense":    func(o options) (*report, error) { return runRX(o, rxDense) },
	"rx-sparse":   func(o options) (*report, error) { return runRX(o, rxSparse) },
	"ns-fleet":    func(o options) (*report, error) { return runFleet(o, nsFleet) },
	"e2e-gateway": func(o options) (*report, error) { return runE2E(o, e2eGateway) },
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: rx-dense, rx-sparse, ns-fleet or e2e-gateway")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured section, seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "scratch directory for trace-store segments")
	flag.Parse()
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "tnbbench: need -workload one of rx-dense, rx-sparse, ns-fleet, e2e-gateway; -trace 0 or 1; -seconds > 0")
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnbbench:", err)
		os.Exit(1)
	}
	line, detail, err := render(o, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnbbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(detail))
	fmt.Println(string(line))
	if len(rep.problems) > 0 {
		for _, p := range rep.problems {
			fmt.Fprintln(os.Stderr, "tnbbench: check failed:", p)
		}
		os.Exit(1)
	}
}

// render builds the detail line and the result line, refusing a metric set
// that differs from the table for the run's mode.
func render(o options, rep *report) (line, detail []byte, err error) {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(rep.metrics) != len(defs) {
		var extra []string
		for name := range rep.metrics {
			if _, ok := ms[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, nil, fmt.Errorf("workload %s measured undeclared metrics %s", o.workload, strings.Join(extra, ", "))
	}
	d := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"ops_total": rep.attempted, "ops_failed": rep.failed,
	}
	for k, v := range rep.detail {
		d[k] = v
	}
	if detail, err = json.Marshal(map[string]any{"detail": d}); err != nil {
		return nil, nil, err
	}
	line, err = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, ms})
	return line, detail, err
}

// zeroLayers fills every per-layer metric the workload does not measure
// with 0 (the layer is bypassed).
func zeroLayers(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}

// setUp builds a workload's inputs and servers setupReps times and returns
// the last build with the median build time. Every earlier build is
// released before the next starts.
func setUp[T any](build func() (T, func(), error)) (T, float64, error) {
	var (
		v       T
		release func()
		times   []float64
	)
	for i := 0; i < setupReps; i++ {
		if release != nil {
			release()
		}
		t0 := time.Now()
		var err error
		v, release, err = build()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return v, median(times), nil
}

// reps runs one closed-loop repetition after another until the section's
// deadline, always at least once, and never starts one that the previous
// repetition's length says would overrun.
func reps(seconds float64, rep func() error) (int, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	n := 0
	var last time.Duration
	for n == 0 || time.Now().Add(last).Before(deadline) {
		t0 := time.Now()
		if err := rep(); err != nil {
			return n, err
		}
		last = time.Since(t0)
		n++
	}
	return n, nil
}
