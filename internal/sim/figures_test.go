package sim

import (
	"bytes"
	"strings"
	"testing"
)

func tinyScale() FigureScale {
	return FigureScale{DurationSec: 1.0, Runs: 1, Loads: []float64{6}, Nodes: 4}
}

func TestFigThroughputSharedTrace(t *testing.T) {
	schemes := []Scheme{SchemeTnB, SchemeLoRaPHY}
	series, err := FigThroughput(Indoor, 8, 4, schemes, tinyScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 1 {
			t.Fatalf("%d points", len(s.Points))
		}
		if s.Points[0].Load != 6 {
			t.Errorf("load %g", s.Points[0].Load)
		}
	}
	if series[0].Points[0].Throughput < series[1].Points[0].Throughput {
		t.Error("TnB below LoRaPHY on a collided trace")
	}
}

func TestFigSNRCDFProducesSamples(t *testing.T) {
	cdf, err := FigSNRCDF(Indoor, 8, tinyScale(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Len() == 0 {
		t.Error("no SNR samples")
	}
}

func TestFigMediumUsageNonNegative(t *testing.T) {
	usage, err := FigMediumUsage(Indoor, 8, tinyScale(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(usage) == 0 {
		t.Fatal("no usage bins")
	}
	for _, u := range usage {
		if u < 0 {
			t.Error("negative usage")
		}
	}
}

func TestFigRescuedCDF(t *testing.T) {
	cdf, err := FigRescuedCDF(Indoor, 8, 3, tinyScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rescued counts are non-negative by construction.
	if cdf.Len() > 0 && cdf.At(-1) != 0 {
		t.Error("negative rescued counts present")
	}
}

func TestFigPRRvsSNRBuckets(t *testing.T) {
	buckets, err := FigPRRvsSNR(Indoor, 8, 4, tinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range buckets {
		if b.PRRTnB < 0 || b.PRRTnB > 1 || b.PRRCIC < 0 || b.PRRCIC > 1 {
			t.Errorf("PRR outside [0,1]: %+v", b)
		}
		total += b.Packets
	}
	if total == 0 {
		t.Error("no packets bucketed")
	}
}

func TestFigCollisionLevelsDistribution(t *testing.T) {
	dist, err := FigCollisionLevels(Indoor, 8, tinyScale(), 6)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for l, f := range dist {
		if l < 0 || f < 0 {
			t.Errorf("bad entry %d:%g", l, f)
		}
		sum += f
	}
	if len(dist) > 0 && (sum < 0.99 || sum > 1.01) {
		t.Errorf("distribution sums to %g", sum)
	}
}

func TestFigETUAllSchemes(t *testing.T) {
	schemes := []Scheme{SchemeCIC, SchemeTnB, SchemeTnB2Ant}
	scale := tinyScale()
	scale.Loads = []float64{4}
	prr, err := FigETU(8, 3, schemes, scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range schemes {
		v, ok := prr[s]
		if !ok {
			t.Errorf("scheme %v missing", s)
		}
		if v < 0 || v > 1 {
			t.Errorf("scheme %v PRR %g", s, v)
		}
	}
}

func TestPrintHelpers(t *testing.T) {
	var buf bytes.Buffer
	PrintThroughput(&buf, []ThroughputSeries{
		{Scheme: SchemeTnB, Points: []ThroughputPoint{{Load: 5, Throughput: 4.5}}},
	})
	out := buf.String()
	if !strings.Contains(out, "TnB") || !strings.Contains(out, "4.50") {
		t.Errorf("throughput table output: %q", out)
	}
	buf.Reset()
	PrintDistribution(&buf, map[int]float64{2: 0.5, 0: 0.25})
	out = buf.String()
	if !strings.Contains(out, "level  0") || !strings.Contains(out, "50.0%") {
		t.Errorf("distribution output: %q", out)
	}
	buf.Reset()
	PrintThroughput(&buf, nil)
	if buf.Len() != 0 {
		t.Error("empty series should print nothing")
	}
}

func TestScaleHelpers(t *testing.T) {
	b := FigureScale{DurationSec: 1.5, Runs: 1, Loads: []float64{10, 20}, Nodes: 8}
	dep := b.deployment(Indoor)
	if dep.Nodes != b.Nodes {
		t.Error("node override failed")
	}
	var zero FigureScale
	if zero.deployment(Indoor).Nodes != Indoor.Nodes {
		t.Error("zero scale must keep deployment nodes")
	}
}
