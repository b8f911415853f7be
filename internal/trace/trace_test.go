package trace

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"tnb/internal/channel"
	"tnb/internal/dsp"
	"tnb/internal/lora"
	"tnb/internal/peaks"
)

func testParams() lora.Params { return lora.MustParams(8, 4, 125e3, 8) }

// power returns the mean of |x[i]|².
func power(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e / float64(len(x))
}

func TestIQ16RoundTrip(t *testing.T) {
	tr := NewTrace(1e6, 1, 100)
	rng := rand.New(rand.NewSource(30))
	for i := range tr.Antennas[0] {
		tr.Antennas[0][i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := WriteIQ16(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIQ16(&buf, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("length %d, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Antennas[0] {
		if cmplx.Abs(got.Antennas[0][i]-tr.Antennas[0][i]) > 1.0/iq16Scale {
			t.Fatalf("sample %d: %v vs %v", i, got.Antennas[0][i], tr.Antennas[0][i])
		}
	}
}

func TestReadIQ16Truncated(t *testing.T) {
	if _, err := ReadIQ16(bytes.NewReader([]byte{1, 2, 3}), 1e6); err == nil {
		t.Error("expected error for truncated stream")
	}
}

func TestWriteIQ16NoAntennas(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteIQ16(&buf, &Trace{SampleRate: 1e6}); err == nil {
		t.Error("expected error for empty trace")
	}
}

func TestBuilderSinglePacketPower(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(31))
	b := NewBuilder(p, 0.5, 1, rng)
	b.NoisePower = 0 // noiseless to measure signal power
	if err := b.AddPacket(1, 0, []uint8{1, 2, 3, 4}, 1000, 10, 0, nil); err != nil {
		t.Fatal(err)
	}
	tr, recs := b.Build()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	rec := recs[0]
	seg := tr.Antennas[0][int(rec.StartSample)+10 : int(rec.StartSample)+rec.NumSamples-10]
	power := power(seg)
	want := dsp.DBToLinear(10)
	if math.Abs(power-want)/want > 0.05 {
		t.Errorf("signal power %g, want %g", power, want)
	}
}

func TestBuilderNoiseFloor(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(32))
	b := NewBuilder(p, 0.2, 1, rng)
	tr, _ := b.Build() // no packets: pure noise
	power := power(tr.Antennas[0])
	if math.Abs(power-1) > 0.05 {
		t.Errorf("noise power %g, want 1", power)
	}
}

func TestBuilderRejectsOutOfRangePacket(t *testing.T) {
	p := testParams()
	b := NewBuilder(p, 0.05, 1, rand.New(rand.NewSource(33)))
	err := b.AddPacket(1, 0, make([]uint8, 16), float64(b.duration)-100, 10, 0, nil)
	if err == nil {
		t.Error("expected error for packet past trace end")
	}
	if err := b.AddPacket(1, 0, make([]uint8, 16), -5, 10, 0, nil); err == nil {
		t.Error("expected error for negative start")
	}
}

func TestBuilderRejectsChannelCountMismatch(t *testing.T) {
	p := testParams()
	b := NewBuilder(p, 0.5, 2, rand.New(rand.NewSource(34)))
	err := b.AddPacket(1, 0, []uint8{1}, 0, 10, 0, []channel.Model{channel.Flat{Gain: 1}})
	if err == nil {
		t.Error("expected error for 1 channel on 2 antennas")
	}
}

func TestBuilderMultiAntenna(t *testing.T) {
	p := testParams()
	rng := rand.New(rand.NewSource(35))
	b := NewBuilder(p, 0.3, 2, rng)
	b.NoisePower = 0
	if err := b.AddPacket(1, 0, []uint8{9, 8, 7}, 500, 6, 1000, nil); err != nil {
		t.Fatal(err)
	}
	tr, recs := b.Build()
	if tr.NumAntennas() != 2 {
		t.Fatalf("antennas = %d", tr.NumAntennas())
	}
	rec := recs[0]
	for a := 0; a < 2; a++ {
		seg := tr.Antennas[a][int(rec.StartSample)+10 : int(rec.StartSample)+rec.NumSamples-10]
		if power(seg) < 1 {
			t.Errorf("antenna %d carries too little signal", a)
		}
	}
	// Antennas must differ (independent phases).
	s0 := tr.Antennas[0][600]
	s1 := tr.Antennas[1][600]
	if cmplx.Abs(s0-s1) < 1e-9 {
		t.Error("antennas are identical; expected independent phases")
	}
}

func TestBuiltPacketDecodesWithKnownParameters(t *testing.T) {
	// End-to-end: builder → trace → demodulate at the known start/CFO →
	// default decode recovers the payload.
	p := testParams()
	rng := rand.New(rand.NewSource(36))
	b := NewBuilder(p, 0.5, 1, rng)
	payload := []uint8("tnb end-to-end!!")
	start := 2345.678
	cfoHz := -2500.0
	if err := b.AddPacket(3, 7, payload, start, 25, cfoHz, nil); err != nil {
		t.Fatal(err)
	}
	tr, recs := b.Build()
	rec := recs[0]

	d := lora.NewDemodulator(p)
	dataStart := rec.StartSample + (lora.PreambleUpchirps+lora.SyncSymbols+
		float64(lora.DownchirpQuarters)/4)*float64(p.SymbolSamples())
	cfoCycles := cfoHz * p.SymbolDuration()
	shifts := make([]int, len(rec.Shifts))
	y := make([]float64, p.N())
	buf := make([]complex128, p.N())
	for k := range shifts {
		d.SignalVectorInto(y, buf, tr.Antennas[0], dataStart+float64(k*p.SymbolSamples()), cfoCycles, k)
		shifts[k] = peaks.HighestBin(y)
	}
	res := lora.DecodeDefault(p, shifts)
	if !res.OK {
		t.Fatal("decode failed")
	}
	if string(res.Payload) != string(payload) {
		t.Fatalf("payload %q, want %q", res.Payload, payload)
	}
}

func TestTxRecordOverlaps(t *testing.T) {
	a := TxRecord{StartSample: 0, NumSamples: 100}
	b := TxRecord{StartSample: 50, NumSamples: 100}
	c := TxRecord{StartSample: 100, NumSamples: 10}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c touch but do not overlap")
	}
}

func TestScheduleUniformFitsPackets(t *testing.T) {
	p := testParams()
	b := NewBuilder(p, 1.0, 1, rand.New(rand.NewSource(37)))
	starts := b.ScheduleUniform(20, 16)
	if len(starts) != 20 {
		t.Fatalf("%d starts", len(starts))
	}
	pkt := p.PacketSamples(16)
	for _, s := range starts {
		if s < 0 || int(s)+pkt > b.duration {
			t.Errorf("start %g does not fit", s)
		}
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			t.Error("starts not sorted")
		}
	}
}
