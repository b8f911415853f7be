package tnb

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§8). Each benchmark regenerates its table/figure at a
// CI-friendly scale (benchScale: shorter traces and fewer nodes than
// the paper's 30 s × 19-25 nodes; scheme ordering is preserved) and reports
// the headline quantities as custom metrics. Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale series are produced by cmd/tnbsim and cmd/becprob.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"tnb/internal/bec"
	"tnb/internal/lora"
	"tnb/internal/metrics"
	"tnb/internal/obs"
	"tnb/internal/sim"
	"tnb/internal/stagegraph"
	"tnb/internal/stats"
	"tnb/internal/trace"
)

// BenchmarkTable1BECCapability measures BEC's block decoding across the
// error-column counts of Table 1 and reports the correction rate of the
// hardest case per CR.
func BenchmarkTable1BECCapability(b *testing.B) {
	cases := []struct {
		name string
		cr   int
		cols int
	}{
		{"CR1_1col", 1, 1},
		{"CR2_1col", 2, 1},
		{"CR3_2col", 3, 2},
		{"CR4_2col", 4, 2},
		{"CR4_3col", 4, 3},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			corrected := 0
			for i := 0; i < b.N; i++ {
				truth := randomBlock(rng, 8, c.cr)
				r := corruptCols(rng, truth, c.cols)
				res := bec.DecodeBlock(r, c.cr)
				for _, cand := range res.Candidates {
					if cand.Equal(truth) {
						corrected++
						break
					}
				}
			}
			b.ReportMetric(float64(corrected)/float64(b.N), "corrected/op")
		})
	}
}

// BenchmarkTable2BECComplexity measures the repair cost per block: the
// number of packet-level CRC tests stays within Table 2's budget.
func BenchmarkTable2BECComplexity(b *testing.B) {
	for _, cr := range []int{1, 2, 3, 4} {
		b.Run(lora.MustParams(8, cr, 125e3, 8).String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			maxCands := 0
			for i := 0; i < b.N; i++ {
				truth := randomBlock(rng, 8, cr)
				ncols := 1
				if cr >= 3 {
					ncols = cr - 1
				}
				r := corruptCols(rng, truth, ncols)
				res := bec.DecodeBlock(r, cr)
				if len(res.Candidates) > maxCands {
					maxCands = len(res.Candidates)
				}
			}
			b.ReportMetric(float64(maxCands), "max-candidates")
		})
	}
}

// BenchmarkFig1PeakSensitivity sweeps timing and CFO error and reports the
// peak height degradation (Fig. 1(b), 1(c)).
func BenchmarkFig1PeakSensitivity(b *testing.B) {
	p := Params(8, 4)
	d := lora.NewDemodulator(p)
	sig := make([]complex128, 2*p.SymbolSamples())
	for i := range p.SymbolSamples() {
		sig[i] = lora.SymbolAt(float64(i)/p.SampleRate(), 100, p.N(), p.Bandwidth)
	}
	y := make([]float64, p.N())
	buf := make([]complex128, p.N())
	peak := func(start, cfoCycles float64) float64 {
		d.SignalVectorInto(y, buf, sig, start, cfoCycles, 0)
		return peakOf(y)
	}
	aligned := peak(0, 0)
	b.Run("timing_quarter_symbol", func(b *testing.B) {
		var h float64
		for i := 0; i < b.N; i++ {
			h = peak(float64(p.SymbolSamples())/4, 0)
		}
		b.ReportMetric(h/aligned, "peak-ratio")
	})
	b.Run("cfo_half_cycle", func(b *testing.B) {
		var h float64
		for i := 0; i < b.N; i++ {
			h = peak(0, -0.5)
		}
		b.ReportMetric(h/aligned, "peak-ratio")
	})
}

// BenchmarkFig8SyncSurface runs the 3-phase fractional synchronization
// search on a commodity-like packet (Fig. 8's Q/Q* surfaces drive it).
func BenchmarkFig8SyncSurface(b *testing.B) {
	p := Params(8, 4)
	rng := rand.New(rand.NewSource(3))
	builder := NewTraceBuilder(p, 0.6, 1, rng)
	if err := builder.AddPacket(0, 0, sim.MakePayload(0, 0, 14), 20000.37, 12, 2741, nil); err != nil {
		b.Fatal(err)
	}
	tr, recs := builder.Build()
	rx := NewReceiver(ReceiverConfig{Params: p, UseBEC: true})
	b.ResetTimer()
	var timingErr float64
	for i := 0; i < b.N; i++ {
		decoded := rx.Decode(tr)
		if len(decoded) != 1 {
			b.Fatal("packet lost")
		}
		timingErr = decoded[0].Start - recs[0].StartSample
	}
	b.ReportMetric(timingErr, "timing-err-samples")
}

// BenchmarkFig10SNRCDF regenerates the estimated-SNR CDFs.
func BenchmarkFig10SNRCDF(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		cdf, err := sim.FigSNRCDF(sim.Indoor, 8, scale, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(cdfMedian(cdf), "median-snr-db")
		}
	}
}

// BenchmarkFig11MediumUsage regenerates the medium-usage series.
func BenchmarkFig11MediumUsage(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		usage, err := sim.FigMediumUsage(sim.Indoor, 8, scale, 4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			maxU := 0
			for _, u := range usage {
				if u > maxU {
					maxU = u
				}
			}
			b.ReportMetric(float64(maxU), "peak-usage")
		}
	}
}

// BenchmarkFig12_14Throughput regenerates one throughput-vs-load panel per
// deployment (Figs. 12, 13, 14) and reports TnB's gain over CIC at the
// highest load.
func BenchmarkFig12_14Throughput(b *testing.B) {
	schemes := []sim.Scheme{sim.SchemeTnB, sim.SchemeCIC, sim.SchemeAlignTrack, sim.SchemeLoRaPHY}
	for _, dep := range sim.Deployments {
		b.Run(dep.Name, func(b *testing.B) {
			scale := benchScale()
			var gain float64
			for i := 0; i < b.N; i++ {
				series, err := sim.FigThroughput(dep, 8, 4, schemes, scale, 5)
				if err != nil {
					b.Fatal(err)
				}
				tnbT := series[0].Points[len(series[0].Points)-1].Throughput
				cicT := series[1].Points[len(series[1].Points)-1].Throughput
				if cicT > 0 {
					gain = tnbT / cicT
				}
			}
			b.ReportMetric(gain, "tnb/cic-gain")
		})
	}
}

// BenchmarkFig15Ablation regenerates the component ablation and reports
// the TnB/Thrive ratio (the paper's 1.31× BEC contribution).
func BenchmarkFig15Ablation(b *testing.B) {
	schemes := []sim.Scheme{sim.SchemeTnB, sim.SchemeThrive, sim.SchemeSibling, sim.SchemeCIC}
	scale := benchScale()
	scale.Loads = scale.Loads[len(scale.Loads)-1:]
	var ratio float64
	for i := 0; i < b.N; i++ {
		series, err := sim.FigThroughput(sim.Indoor, 8, 4, schemes, scale, 6)
		if err != nil {
			b.Fatal(err)
		}
		tnbT := series[0].Points[0].Throughput
		thriveT := series[1].Points[0].Throughput
		if thriveT > 0 {
			ratio = tnbT / thriveT
		}
	}
	b.ReportMetric(ratio, "tnb/thrive-gain")
}

// BenchmarkFig16RescuedCodewords regenerates the rescued-codewords CDF.
func BenchmarkFig16RescuedCodewords(b *testing.B) {
	scale := benchScale()
	var fracRescued float64
	for i := 0; i < b.N; i++ {
		cdf, err := sim.FigRescuedCDF(sim.Indoor, 8, 3, scale, 7)
		if err != nil {
			b.Fatal(err)
		}
		if cdf.Len() > 0 {
			fracRescued = 1 - cdf.At(0)
		}
	}
	b.ReportMetric(fracRescued, "frac-rescued")
}

// BenchmarkFig17PRRvsSNR regenerates the PRR-by-SNR buckets.
func BenchmarkFig17PRRvsSNR(b *testing.B) {
	scale := benchScale()
	var advantage float64
	for i := 0; i < b.N; i++ {
		buckets, err := sim.FigPRRvsSNR(sim.Indoor, 8, 4, scale, 8)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for _, bk := range buckets {
			if bk.Packets > 0 {
				sum += bk.PRRTnB - bk.PRRCIC
				n++
			}
		}
		if n > 0 {
			advantage = sum / float64(n)
		}
	}
	b.ReportMetric(advantage, "mean-prr-advantage")
}

// BenchmarkFig18CollisionLevels regenerates the collision-level
// distribution of decoded packets.
func BenchmarkFig18CollisionLevels(b *testing.B) {
	scale := benchScale()
	var collidedFrac float64
	for i := 0; i < b.N; i++ {
		dist, err := sim.FigCollisionLevels(sim.Indoor, 8, scale, 9)
		if err != nil {
			b.Fatal(err)
		}
		collidedFrac = 1 - dist[0]
	}
	b.ReportMetric(collidedFrac, "frac-collided")
}

// BenchmarkFig19ETU regenerates the ETU-channel comparison and reports the
// PRRs of TnB2ant and CIC.
func BenchmarkFig19ETU(b *testing.B) {
	schemes := []sim.Scheme{
		sim.SchemeCIC, sim.SchemeCICBEC, sim.SchemeAlignTrack, sim.SchemeAlignTrackBEC,
		sim.SchemeThrive, sim.SchemeTnB, sim.SchemeTnB2Ant,
	}
	scale := benchScale()
	scale.Loads = []float64{5}
	var tnb2, cic float64
	for i := 0; i < b.N; i++ {
		prr, err := sim.FigETU(8, 3, schemes, scale, 10)
		if err != nil {
			b.Fatal(err)
		}
		tnb2, cic = prr[sim.SchemeTnB2Ant], prr[sim.SchemeCIC]
	}
	b.ReportMetric(tnb2, "tnb2ant-prr")
	b.ReportMetric(cic, "cic-prr")
}

// BenchmarkFig20ErrorProbability runs the Lemma 4 analysis plus a Monte
// Carlo check for SF 7 and reports both probabilities.
func BenchmarkFig20ErrorProbability(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	failures, trials := 0, 0
	for i := 0; i < b.N; i++ {
		truth := randomBlock(rng, 7, 4)
		cols := rng.Perm(8)[:3]
		r := truth.Clone()
		for _, c := range cols {
			for row := 0; row < r.Rows; row++ {
				if rng.Intn(2) == 1 {
					r.Bits[row][c] ^= 1
				}
			}
		}
		res := bec.DecodeBlock(r, 4)
		ok := false
		for _, cand := range res.Candidates {
			if cand.Equal(truth) {
				ok = true
				break
			}
		}
		if !ok {
			failures++
		}
		trials++
	}
	b.ReportMetric(float64(failures)/float64(trials), "simulated-err")
	b.ReportMetric(bec.ErrorProbCR4ThreeColumns(7), "analytic-err")
}

// BenchmarkAblationSecondPass contrasts TnB with and without the second
// decoding pass (design decision of §4, ablation hook from DESIGN.md).
func BenchmarkAblationSecondPass(b *testing.B) {
	cfg := sim.Config{
		Deployment: sim.UniformSNR("ab", 8, 0, 20),
		SF:         8, CR: 4,
		LoadPktPerSec: 12, DurationSec: 1.5, Seed: 12,
	}
	gt, err := sim.Generate(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, second := range []bool{true, false} {
		name := "with-second-pass"
		if !second {
			name = "single-pass"
		}
		b.Run(name, func(b *testing.B) {
			var decoded int
			for i := 0; i < b.N; i++ {
				rx := NewReceiver(ReceiverConfig{Params: Params(8, 4), UseBEC: true,
					DisableSecondPass: !second})
				decoded = len(rx.Decode(gt.Trace))
			}
			b.ReportMetric(float64(decoded), "decoded")
		})
	}
}

// BenchmarkAblationW measures BEC's sensitivity to the W budget for CR 1
// (the §6.9 note: W=25 loses under 5% versus 125).
func BenchmarkAblationW(b *testing.B) {
	p := Params(8, 1)
	rng := rand.New(rand.NewSource(13))
	payload := sim.MakePayload(1, 2, 14)
	shifts, _, err := lora.Encode(p, payload)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{125, 25} {
		b.Run(benchName("W", w), func(b *testing.B) {
			ok := 0
			for i := 0; i < b.N; i++ {
				c := append([]int(nil), shifts...)
				// Corrupt one symbol in each of two blocks.
				c[lora.HeaderSymbols+rng.Intn(5)] = rng.Intn(p.N())
				c[lora.HeaderSymbols+5+rng.Intn(5)] = rng.Intn(p.N())
				pd := bec.NewPacketDecoder(w, rng)
				if res := pd.DecodePacket(p, c); res.OK {
					ok++
				}
			}
			b.ReportMetric(float64(ok)/float64(b.N), "decode-rate")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

func randomBlock(rng *rand.Rand, rows, cr int) *lora.Block {
	b := lora.NewBlock(rows, 4+cr)
	for r := 0; r < rows; r++ {
		b.SetRowCodeword(r, lora.HammingEncode(uint8(rng.Intn(16)), cr))
	}
	return b
}

func corruptCols(rng *rand.Rand, b *lora.Block, n int) *lora.Block {
	out := b.Clone()
	cols := rng.Perm(b.Cols)[:n]
	for _, c := range cols {
		flipped := false
		for r := 0; r < out.Rows; r++ {
			if rng.Intn(2) == 1 {
				out.Bits[r][c] ^= 1
				flipped = true
			}
		}
		if !flipped {
			out.Bits[rng.Intn(out.Rows)][c] ^= 1
		}
	}
	return out
}

// benchScale is small enough for go test -bench.
func benchScale() sim.FigureScale {
	return sim.FigureScale{DurationSec: 1.5, Runs: 1, Loads: []float64{10, 20}, Nodes: 8}
}

// cdfMedian returns the smallest sample v with P(X <= v) >= 0.5.
func cdfMedian(c *stats.CDF) float64 {
	values, probs := c.Points(c.Len())
	for i, pr := range probs {
		if pr >= 0.5 {
			return values[i]
		}
	}
	return 0
}

func peakOf(y []float64) float64 {
	var m float64
	for _, v := range y {
		if v > m {
			m = v
		}
	}
	return m
}

// BenchmarkAblationOmega sweeps the history-cost weight ω (paper §5.3.3
// fixes ω = 0.1; DESIGN.md exposes it as an ablation hook) and reports the
// decode count at each setting.
func BenchmarkAblationOmega(b *testing.B) {
	cfg := sim.Config{
		Deployment: sim.UniformSNR("omega", 8, 0, 20),
		SF:         8, CR: 4,
		LoadPktPerSec: 12, DurationSec: 1.5, Seed: 21,
	}
	gt, err := sim.Generate(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, omega := range []float64{0.01, 0.1, 0.5, 2} {
		b.Run("omega="+formatFloat(omega), func(b *testing.B) {
			var decoded int
			for i := 0; i < b.N; i++ {
				rx := NewReceiver(ReceiverConfig{Params: Params(8, 4), UseBEC: true, Omega: omega})
				decoded = len(rx.Decode(gt.Trace))
			}
			b.ReportMetric(float64(decoded), "decoded")
		})
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// BenchmarkExtendedBaselines runs the mLoRa related-work scheme on the
// shared bench trace, extending the Fig. 12 comparison.
func BenchmarkExtendedBaselines(b *testing.B) {
	cfg := sim.Config{
		Deployment: sim.UniformSNR("ext", 8, 0, 20),
		SF:         8, CR: 4,
		LoadPktPerSec: 12, DurationSec: 1.5, Seed: 22,
	}
	gt, err := sim.Generate(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []sim.Scheme{sim.SchemeTnB, sim.SchemeMLoRa, sim.SchemeLoRaPHY} {
		b.Run(s.String(), func(b *testing.B) {
			var prr float64
			for i := 0; i < b.N; i++ {
				prr = sim.Score(cfg, s, gt).PRR
			}
			b.ReportMetric(prr, "prr")
		})
	}
}

// BenchmarkReceiver measures one full pipeline run (detect → signal calc →
// Thrive → BEC, both passes) over a collided trace: bare, with the metrics
// subsystem recording, and with full per-packet decode tracing. Bare and
// instrumented must be indistinguishable (atomics plus four clock reads per
// window); traced pays for per-symbol decision capture and bounds the
// overhead of running a gateway with -trace-out.
func BenchmarkReceiver(b *testing.B) {
	p := lora.MustParams(8, 4, 125e3, 8)
	rng := rand.New(rand.NewSource(7))
	tb := trace.NewBuilder(p, 1.5, 1, rng)
	starts := tb.ScheduleUniform(6, 14)
	for i, s := range starts {
		payload := make([]uint8, 14)
		rng.Read(payload)
		if err := tb.AddPacket(i, 0, payload, s, 10, -3000+float64(i)*1200, nil); err != nil {
			b.Fatal(err)
		}
	}
	tr, _ := tb.Build()

	run := func(b *testing.B, workers int, met *stagegraph.PipelineMetrics, tracer *obs.Tracer) {
		rx := stagegraph.New(stagegraph.Config{Params: p, UseBEC: true, Workers: workers,
			Metrics: met, Tracer: tracer})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(rx.Decode(tr)) == 0 {
				b.Fatal("nothing decoded")
			}
		}
		b.StopTimer()
		samples := float64(len(tr.Antennas[0])) * float64(b.N)
		b.ReportMetric(samples/b.Elapsed().Seconds(), "samples/sec")
	}
	b.Run("bare", func(b *testing.B) { run(b, 1, nil, nil) })
	b.Run("instrumented", func(b *testing.B) {
		run(b, 1, stagegraph.NewPipelineMetrics(metrics.NewRegistry()), nil)
	})
	b.Run("traced", func(b *testing.B) {
		run(b, 1, nil, obs.New(obs.Options{RingSize: 64}))
	})
	// The worker-pool scaling curve: identical output at every width (the
	// determinism tests assert it), so the deltas here are pure wall-clock.
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			run(b, workers, nil, nil)
		})
	}
}
