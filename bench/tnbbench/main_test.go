package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with
// BENCHMARK.json in both directions: every declared metric is emitted with
// the declared unit, and nothing undeclared is.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		want []struct{ Name, Unit string }
		have []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		have := map[string]string{}
		for _, d := range c.have {
			have[d.name] = d.unit
		}
		for _, m := range c.want {
			unit, ok := have[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: BENCHMARK.json declares %s, which tnbbench does not emit", c.what, m.Name)
			case unit != m.Unit:
				t.Errorf("%s: %s unit is %q in BENCHMARK.json, %q in tnbbench", c.what, m.Name, m.Unit, unit)
			}
			delete(have, m.Name)
		}
		for name := range have {
			t.Errorf("%s: tnbbench emits %s, which BENCHMARK.json does not declare", c.what, name)
		}
	}
	names := map[string]bool{}
	for _, w := range bench.Workloads {
		names[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	for name := range workloads {
		if !names[name] {
			t.Errorf("runner %s is not a BENCHMARK.json workload", name)
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size and requires the
// full metric set of the mode and every correctness check to pass.
func TestWorkloadsTiny(t *testing.T) {
	tiny := map[string]func(options) (*report, error){
		"rx-dense":    func(o options) (*report, error) { return runRX(o, rxSize{duration: 1.5, load: 6, secondsPerTrace: 1}) },
		"rx-sparse":   func(o options) (*report, error) { return runRX(o, rxSize{duration: 1.5, load: 1, secondsPerTrace: 1}) },
		"ns-fleet":    func(o options) (*report, error) { return runFleet(o, fleetSize{nodes: 40, packets: 2, duration: 10}) },
		"e2e-gateway": func(o options) (*report, error) { return runE2E(o, e2eSize{rate: 8, packets: 1}) },
	}
	for name, run := range tiny {
		modes := []bool{false, true}
		if name == "e2e-gateway" {
			// Real time: the traced run streams an untraced session too.
			modes = modes[1:]
		}
		for _, traced := range modes {
			o := options{workload: name, seed: 5, seconds: 0.01, trace: traced, tmp: t.TempDir()}
			if name == "e2e-gateway" {
				o.seconds = e2eTail // the shortest traffic span
			}
			rep, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(rep.problems) > 0 {
				t.Errorf("%s traced=%v: checks failed: %v", name, traced, rep.problems)
			}
			if rep.attempted < 1 || rep.failed > rep.attempted {
				t.Errorf("%s traced=%v: attempted %d, failed %d", name, traced, rep.attempted, rep.failed)
			}
			if _, _, err := render(o, rep); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
		}
	}
}

func TestCheckStageSums(t *testing.T) {
	for _, c := range []struct {
		wall, own, replica float64
		fail               bool
	}{
		{2.6, 2.5, 2.6, false},  // 4% apart
		{2.6, 2.5, 2.8, true},   // 12% apart
		{2.6, 2.5, 2.2, true},   // 12% apart, the other way
		{2.4, 2.5, 2.5, true},   // stages longer than the calls holding them
		{0.2, 0.1, 0.15, false}, // too little time to compare
	} {
		rep := &report{}
		checkStageSums(rep, c.wall, c.own, c.replica)
		if fail := len(rep.problems) > 0; fail != c.fail {
			t.Errorf("wall %v own %v replica %v: problems %v, want failure %v", c.wall, c.own, c.replica, rep.problems, c.fail)
		}
	}
}

func TestWindowsCoverTheStream(t *testing.T) {
	for _, c := range []struct {
		n    int
		want [][2]int
	}{
		{0, nil},
		{5, [][2]int{{0, 5}}},
		{13, [][2]int{{0, 13}}},
		{14, [][2]int{{0, 14}, {10, 14}}},
		{25, [][2]int{{0, 14}, {10, 24}, {20, 25}}},
	} {
		var got [][2]int
		windows(c.n, 10, 4, func(lo, hi int) { got = append(got, [2]int{lo, hi}) })
		if len(got) != len(c.want) {
			t.Fatalf("n=%d: windows %v, want %v", c.n, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("n=%d: windows %v, want %v", c.n, got, c.want)
			}
		}
	}
}
