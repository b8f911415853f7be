package diag

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tnb/internal/dsp"
	"tnb/internal/lora"
)

func TestComputeRejectsBadSize(t *testing.T) {
	if _, err := Compute(nil, 100, 0); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := Compute(nil, 1, 0); err == nil {
		t.Error("size 1 accepted")
	}
}

func TestComputeToneConcentratesInOneColumn(t *testing.T) {
	n := 4096
	x := make([]complex128, n)
	f := 0.1 // cycles/sample → column at center + 0.1*fftSize
	for i := range x {
		x[i] = dsp.Cis(2 * math.Pi * f * float64(i))
	}
	sg, err := Compute(x, 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Rows) == 0 {
		t.Fatal("no rows")
	}
	wantBin := 128 + int(f*256)
	for r, row := range sg.Rows {
		bi, best := 0, 0.0
		for i, v := range row {
			if v > best {
				best, bi = v, i
			}
		}
		if bi < wantBin-1 || bi > wantBin+1 {
			t.Fatalf("row %d: peak at bin %d, want ≈%d", r, bi, wantBin)
		}
	}
}

func TestComputeChirpSweepsColumns(t *testing.T) {
	// A LoRa upchirp sweeps the whole band: the per-row peak column must
	// migrate across most of the spectrogram width.
	p := lora.MustParams(8, 4, 125e3, 8)
	sig := make([]complex128, p.SymbolSamples())
	for i := range sig {
		sig[i] = lora.SymbolAt(float64(i)/p.SampleRate(), 0, p.N(), p.Bandwidth)
	}
	sg, err := Compute(sig, 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	minBin, maxBin := 128, 0
	for _, row := range sg.Rows {
		bi, best := 0, 0.0
		for i, v := range row {
			if v > best {
				best, bi = v, i
			}
		}
		if bi < minBin {
			minBin = bi
		}
		if bi > maxBin {
			maxBin = bi
		}
	}
	if maxBin-minBin < 10 {
		t.Errorf("chirp swept only bins [%d, %d]", minBin, maxBin)
	}
}

func TestRenderASCII(t *testing.T) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = dsp.Cis(2 * math.Pi * 0.2 * float64(i))
	}
	sg, err := Compute(x, 128, 128)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sg.RenderASCII(&buf, 40, 30); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(sg.Rows) {
		t.Fatalf("%d lines for %d rows", len(lines), len(sg.Rows))
	}
	for _, l := range lines {
		if len(l) != 40 {
			t.Fatalf("line width %d, want 40", len(l))
		}
		if !strings.ContainsAny(l, "@%#") {
			t.Error("tone row missing a strong glyph")
		}
	}
	// Defaults path.
	var buf2 bytes.Buffer
	if err := sg.RenderASCII(&buf2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if buf2.Len() == 0 {
		t.Error("default render empty")
	}
}

func TestRenderASCIIAllZero(t *testing.T) {
	sg, err := Compute(make([]complex128, 512), 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sg.RenderASCII(&buf, 20, 40); err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(buf.String(), "@#%") {
		t.Error("silence rendered as signal")
	}
}
