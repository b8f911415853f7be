package sim

import (
	"fmt"
	"io"
	"sort"

	"tnb/internal/stats"
	"tnb/internal/trace"
)

// Figure runners: each regenerates one figure of the paper's evaluation as
// a printable series. The Scale parameter shrinks the experiment (duration
// and repetitions) so the same code drives both the full cmd/tnbsim runs
// and the CI-sized benchmarks; scheme ordering is preserved under scaling.

// FigureScale controls experiment size.
type FigureScale struct {
	DurationSec float64   // per-run trace length (paper: 30)
	Runs        int       // repetitions averaged per point (paper: 3)
	Loads       []float64 // traffic loads (paper: 5, 10, 15, 20, 25)
	Nodes       int       // 0 keeps the deployment's node count
}

func (s FigureScale) deployment(d Deployment) Deployment {
	if s.Nodes > 0 {
		d.Nodes = s.Nodes
	}
	return d
}

// ThroughputPoint is one point of a throughput-vs-load series.
type ThroughputPoint struct {
	Load       float64
	Throughput float64
}

// ThroughputSeries holds one scheme's curve.
type ThroughputSeries struct {
	Scheme Scheme
	Points []ThroughputPoint
}

// FigThroughput regenerates one panel of Figs. 12–14 (and, with the
// ablation schemes, Fig. 15): throughput vs load for each scheme on the
// given deployment.
func FigThroughput(dep Deployment, sf, cr int, schemes []Scheme, scale FigureScale, seed int64) ([]ThroughputSeries, error) {
	out := make([]ThroughputSeries, len(schemes))
	for i, s := range schemes {
		out[i].Scheme = s
	}
	for _, load := range scale.Loads {
		sums := make([]float64, len(schemes))
		for run := 0; run < scale.Runs; run++ {
			cfg := Config{
				Deployment: scale.deployment(dep),
				SF:         sf, CR: cr,
				LoadPktPerSec: load,
				DurationSec:   scale.DurationSec,
				Seed:          seed + int64(run)*1000 + int64(load),
			}
			// One trace per (load, run), shared across schemes — exactly
			// the paper's methodology.
			maxAnt := 1
			for _, s := range schemes {
				if s.Antennas() > maxAnt {
					maxAnt = s.Antennas()
				}
			}
			gt, err := Generate(cfg, maxAnt)
			if err != nil {
				return nil, err
			}
			for i, s := range schemes {
				view := gt
				if s.Antennas() < gt.Trace.NumAntennas() {
					sub := *gt.Trace
					sub.Antennas = gt.Trace.Antennas[:s.Antennas()]
					view = &GroundTruth{Trace: &sub, Records: gt.Records, Params: gt.Params}
				}
				sums[i] += Score(cfg, s, view).Throughput
			}
		}
		for i := range schemes {
			out[i].Points = append(out[i].Points, ThroughputPoint{
				Load: load, Throughput: sums[i] / float64(scale.Runs),
			})
		}
	}
	return out, nil
}

// FigSNRCDF regenerates Fig. 10: the CDF of estimated SNRs of decoded
// packets per deployment.
func FigSNRCDF(dep Deployment, sf int, scale FigureScale, seed int64) (*stats.CDF, error) {
	cfg := Config{
		Deployment: scale.deployment(dep),
		SF:         sf, CR: 4,
		LoadPktPerSec: 10,
		DurationSec:   scale.DurationSec,
		Seed:          seed,
	}
	res, err := Run(cfg, SchemeTnB)
	if err != nil {
		return nil, err
	}
	return stats.NewCDF(res.EstimatedSNRs), nil
}

// FigMediumUsage regenerates Fig. 11: medium usage over time at the
// highest load (lower bound over decoded packets).
func FigMediumUsage(dep Deployment, sf int, scale FigureScale, seed int64) ([]int, error) {
	load := scale.Loads[len(scale.Loads)-1]
	cfg := Config{
		Deployment: scale.deployment(dep),
		SF:         sf, CR: 1,
		LoadPktPerSec: load,
		DurationSec:   scale.DurationSec,
		Seed:          seed,
	}
	gt, err := Generate(cfg, 1)
	if err != nil {
		return nil, err
	}
	// Decoded packets only: the paper's lower-bound methodology.
	decodedRecs := matchedRecords(cfg, SchemeTnB, gt)
	return MediumUsage(decodedRecs, gt.Params.SampleRate(), cfg.DurationSec, 0.25), nil
}

// FigRescuedCDF regenerates Fig. 16: the CDF of BEC-rescued codewords per
// decoded packet.
func FigRescuedCDF(dep Deployment, sf, cr int, scale FigureScale, seed int64) (*stats.CDF, error) {
	load := scale.Loads[len(scale.Loads)-1]
	cfg := Config{
		Deployment: scale.deployment(dep),
		SF:         sf, CR: cr,
		LoadPktPerSec: load,
		DurationSec:   scale.DurationSec,
		Seed:          seed,
	}
	res, err := Run(cfg, SchemeTnB)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(res.Rescued))
	for i, r := range res.Rescued {
		vals[i] = float64(r)
	}
	return stats.NewCDF(vals), nil
}

// PRRBucket is one marker of the Fig. 17 scatter: PRR within an SNR range.
type PRRBucket struct {
	SNRLo, SNRHi float64
	PRRTnB       float64
	PRRCIC       float64
	Packets      int
}

// FigPRRvsSNR regenerates Fig. 17: PRR of TnB and CIC bucketed by node SNR.
func FigPRRvsSNR(dep Deployment, sf, cr int, scale FigureScale, seed int64) ([]PRRBucket, error) {
	load := scale.Loads[len(scale.Loads)-1]
	cfg := Config{
		Deployment: scale.deployment(dep),
		SF:         sf, CR: cr,
		LoadPktPerSec: load,
		DurationSec:   scale.DurationSec,
		Seed:          seed,
	}
	gt, err := Generate(cfg, 1)
	if err != nil {
		return nil, err
	}
	tnbRecs := matchedRecords(cfg, SchemeTnB, gt)
	cicRecs := matchedRecords(cfg, SchemeCIC, gt)

	edges := []float64{-10, 0, 5, 10, 15, 30}
	buckets := make([]PRRBucket, len(edges)-1)
	for i := range buckets {
		buckets[i].SNRLo, buckets[i].SNRHi = edges[i], edges[i+1]
	}
	countIn := func(snr float64) int {
		for i := range buckets {
			if snr >= buckets[i].SNRLo && snr < buckets[i].SNRHi {
				return i
			}
		}
		return -1
	}
	sentPer := make([]int, len(buckets))
	tnbPer := make([]int, len(buckets))
	cicPer := make([]int, len(buckets))
	for _, rec := range gt.Records {
		if b := countIn(rec.SNRdB); b >= 0 {
			sentPer[b]++
		}
	}
	for _, rec := range tnbRecs {
		if b := countIn(rec.SNRdB); b >= 0 {
			tnbPer[b]++
		}
	}
	for _, rec := range cicRecs {
		if b := countIn(rec.SNRdB); b >= 0 {
			cicPer[b]++
		}
	}
	for i := range buckets {
		buckets[i].Packets = sentPer[i]
		if sentPer[i] > 0 {
			buckets[i].PRRTnB = float64(tnbPer[i]) / float64(sentPer[i])
			buckets[i].PRRCIC = float64(cicPer[i]) / float64(sentPer[i])
		}
	}
	return buckets, nil
}

// FigCollisionLevels regenerates Fig. 18: the distribution of collision
// levels among packets decoded by TnB.
func FigCollisionLevels(dep Deployment, sf int, scale FigureScale, seed int64) (map[int]float64, error) {
	load := scale.Loads[len(scale.Loads)-1]
	cfg := Config{
		Deployment: scale.deployment(dep),
		SF:         sf, CR: 4,
		LoadPktPerSec: load,
		DurationSec:   scale.DurationSec,
		Seed:          seed,
	}
	gt, err := Generate(cfg, 1)
	if err != nil {
		return nil, err
	}
	recs := matchedRecords(cfg, SchemeTnB, gt)
	levels := CollisionLevels(recs)
	dist := map[int]float64{}
	for _, l := range levels {
		dist[l]++
	}
	for k := range dist {
		dist[k] /= float64(len(levels))
	}
	return dist, nil
}

// FigETU regenerates Fig. 19: PRR of every scheme in the ETU channel with
// the §8.5 SNR ranges.
func FigETU(sf, cr int, schemes []Scheme, scale FigureScale, seed int64) (map[Scheme]float64, error) {
	lo, hi := 0.0, 20.0
	if sf == 10 {
		lo, hi = -6, 14
	}
	nodes := 20
	if scale.Nodes > 0 {
		nodes = scale.Nodes
	}
	cfg := Config{
		Deployment: UniformSNR("etu", nodes, lo, hi),
		SF:         sf, CR: cr,
		LoadPktPerSec: scale.Loads[0],
		DurationSec:   scale.DurationSec,
		ETU:           true,
		Seed:          seed,
	}
	maxAnt := 1
	for _, s := range schemes {
		if s.Antennas() > maxAnt {
			maxAnt = s.Antennas()
		}
	}
	gt, err := Generate(cfg, maxAnt)
	if err != nil {
		return nil, err
	}
	out := map[Scheme]float64{}
	for _, s := range schemes {
		view := gt
		if s.Antennas() < gt.Trace.NumAntennas() {
			sub := *gt.Trace
			sub.Antennas = gt.Trace.Antennas[:s.Antennas()]
			view = &GroundTruth{Trace: &sub, Records: gt.Records, Params: gt.Params}
		}
		out[s] = Score(cfg, s, view).PRR
	}
	return out, nil
}

// matchedRecords returns the ground-truth records of packets the scheme
// decoded.
func matchedRecords(cfg Config, s Scheme, gt *GroundTruth) []trace.TxRecord {
	decoded := runScheme(s, gt, cfg)
	used := make([]bool, len(gt.Records))
	var out []trace.TxRecord
	for _, d := range decoded {
		for i, rec := range gt.Records {
			if used[i] || !payloadEqual(d.payload, rec.Payload) {
				continue
			}
			used[i] = true
			out = append(out, rec)
			break
		}
	}
	return out
}

func payloadEqual(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PrintThroughput writes a throughput table to w.
func PrintThroughput(w io.Writer, series []ThroughputSeries) {
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(w, "%-14s", "load (pkt/s)")
	for _, p := range series[0].Points {
		fmt.Fprintf(w, "%8.0f", p.Load)
	}
	fmt.Fprintln(w)
	for _, s := range series {
		fmt.Fprintf(w, "%-14s", s.Scheme)
		for _, p := range s.Points {
			fmt.Fprintf(w, "%8.2f", p.Throughput)
		}
		fmt.Fprintln(w)
	}
}

// PrintDistribution writes a level→fraction map in sorted order.
func PrintDistribution(w io.Writer, dist map[int]float64) {
	keys := make([]int, 0, len(dist))
	for k := range dist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  level %2d: %5.1f%%\n", k, 100*dist[k])
	}
}
