package peaks

import (
	"math"
	"math/rand"
	"testing"

	"tnb/internal/lora"
)

// prefillFixture renders one packet onto three antennas (independent noise
// and a per-antenna phase) and returns its demodulator, antennas and
// detection parameters.
func prefillFixture(t *testing.T) (d *lora.Demodulator, ants [][]complex128, start, cfoCycles float64, numData int) {
	t.Helper()
	p := lora.MustParams(8, 4, 125e3, 8)
	shifts, _, err := lora.Encode(p, []uint8("prefill fixture!"))
	if err != nil {
		t.Fatal(err)
	}
	start, cfoHz := 700.375, -1800.0
	rng := rand.New(rand.NewSource(41))
	w := lora.NewWaveform(p, shifts)
	ants = make([][]complex128, 3)
	for a := range ants {
		sig := w.Render(start-math.Floor(start), cfoHz, 0.7*float64(a))
		rx := make([]complex128, int(start)+len(sig)+200)
		copy(rx[int(start):], sig)
		for i := range rx {
			rx[i] += complex(0.3*rng.NormFloat64(), 0.3*rng.NormFloat64())
		}
		ants[a] = rx
	}
	return lora.NewDemodulator(p), ants, start, cfoHz * p.SymbolDuration(), len(shifts)
}

// TestPrefillMatchesLazySigVec pins the batched prefill path bit-equal to
// the lazy per-symbol SigVec path, for every preamble and data index, at
// several pool widths and antenna counts, including a prefill that only
// fills the gaps left by earlier lazy reads. Three antennas make the
// summation order observable: with two, a+b == b+a.
func TestPrefillMatchesLazySigVec(t *testing.T) {
	d, ants, start, cfo, numData := prefillFixture(t)
	lo, hi := SymbolRange(numData)
	for _, na := range []int{1, 2, 3} {
		lazy := NewCalculator(d, ants[:na], start, cfo, numData)
		for _, workers := range []int{1, 2, 4} {
			for _, pretouch := range []bool{false, true} {
				c := NewCalculator(d, ants[:na], start, cfo, numData)
				if pretouch {
					for _, idx := range []int{lo, -1, 3, hi - 1} {
						c.SigVec(idx)
					}
				}
				c.Prefill(workers)
				for idx := lo; idx < hi; idx++ {
					got, ok := c.CachedVec(idx)
					if !ok {
						t.Fatalf("antennas=%d workers=%d: symbol %d not cached after Prefill", na, workers, idx)
					}
					want := lazy.SigVec(idx)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("antennas=%d workers=%d pretouch=%v: symbol %d bin %d = %v, lazy %v",
								na, workers, pretouch, idx, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestLazySigVecMatchesSumSignalVector pins the lazy path, a one-symbol
// prefillChunk, to the demodulator's per-symbol antenna sum bit for bit on
// every symbol, and checks that a warm calculator computes a lazy vector
// without allocating.
func TestLazySigVecMatchesSumSignalVector(t *testing.T) {
	d, ants, start, cfo, numData := prefillFixture(t)
	n := d.Params().N()
	acc, y, buf := make([]float64, n), make([]float64, n), make([]complex128, n)
	c := NewCalculator(d, ants, start, cfo, numData)
	lo, hi := SymbolRange(numData)
	for idx := lo; idx < hi; idx++ {
		d.SumSignalVectorInto(acc, y, buf, ants, c.symStart(idx), cfo, idx, false)
		got := c.SigVec(idx)
		for i := range acc {
			if math.Float64bits(got[i]) != math.Float64bits(acc[i]) {
				t.Fatalf("symbol %d bin %d: lazy %v, SumSignalVectorInto %v", idx, i, got[i], acc[i])
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		c.Reset(d, ants, start, cfo, numData)
		c.SigVec(3)
	})
	if allocs != 0 {
		t.Fatalf("lazy SigVec on a warm calculator allocates %v/op", allocs)
	}
}

// TestPrefillPreambleFillsOnlyPreamble checks PrefillPreamble caches exactly
// the preamble upchirp and sync slots and leaves every data symbol lazy.
func TestPrefillPreambleFillsOnlyPreamble(t *testing.T) {
	d, ants, start, cfo, numData := prefillFixture(t)
	c := NewCalculator(d, ants, start, cfo, numData)
	c.PrefillPreamble()
	lo, hi := SymbolRange(numData)
	cached := 0
	for idx := lo; idx < hi; idx++ {
		if _, ok := c.CachedVec(idx); ok {
			cached++
			if idx >= 0 {
				t.Errorf("data symbol %d cached by PrefillPreamble", idx)
			}
		} else if idx < 0 {
			t.Errorf("preamble symbol %d not cached", idx)
		}
	}
	if want := lora.PreambleUpchirps + lora.SyncSymbols; cached != want {
		t.Errorf("%d slots cached, want %d", cached, want)
	}
}

// TestCalcPoolRewindReuses checks a pooled calculator re-targeted after
// Rewind drops the previous packet's vectors and computes the same vectors
// as a new calculator.
func TestCalcPoolRewindReuses(t *testing.T) {
	d, ants, start, cfo, numData := prefillFixture(t)
	var pool CalcPool
	first := pool.Get(d, ants, start+40, cfo+0.5, numData)
	first.Prefill(2)
	pool.Rewind()

	c := pool.Get(d, ants, start, cfo, numData)
	if c != first {
		t.Fatal("Get after Rewind did not reuse the pooled calculator")
	}
	lo, hi := SymbolRange(numData)
	for idx := lo; idx < hi; idx++ {
		if _, ok := c.CachedVec(idx); ok {
			t.Fatalf("symbol %d still cached after the pooled calculator was re-targeted", idx)
		}
	}
	if other := pool.Get(d, ants, start, cfo, numData); other == c {
		t.Fatal("second Get returned the calculator already handed out")
	}

	fresh := NewCalculator(d, ants, start, cfo, numData)
	c.Prefill(1)
	for idx := lo; idx < hi; idx++ {
		got, want := c.SigVec(idx), fresh.SigVec(idx)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("symbol %d bin %d: pooled %v, fresh %v", idx, i, got[i], want[i])
			}
		}
	}
	if c.Alpha() != fresh.Alpha() || c.SymbolStart(0) != fresh.SymbolStart(0) {
		t.Error("pooled calculator geometry differs from a fresh one")
	}
}

// TestReplayCalculatorServesOnlyRecorded checks a replay calculator returns
// the recorded vectors and panics on any symbol that was not recorded.
func TestReplayCalculatorServesOnlyRecorded(t *testing.T) {
	d, ants, start, cfo, numData := prefillFixture(t)
	src := NewCalculator(d, ants, start, cfo, numData)
	rec := map[int][]float64{-3: src.SigVec(-3), 0: src.SigVec(0)}
	c := NewReplayCalculator(d, start, cfo, numData, rec)
	for idx, want := range rec {
		got := c.SigVec(idx)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replayed symbol %d bin %d = %v, recorded %v", idx, i, got[i], want[i])
			}
		}
	}
	if c.Alpha() != src.Alpha() {
		t.Errorf("replay alpha %v, source %v", c.Alpha(), src.Alpha())
	}
	mustPanic(t, "unrecorded symbol", func() { c.SigVec(1) })
	mustPanic(t, "out-of-range vector", func() {
		NewReplayCalculator(d, start, cfo, numData, map[int][]float64{numData: src.SigVec(0)})
	})
	mustPanic(t, "short vector", func() {
		NewReplayCalculator(d, start, cfo, numData, map[int][]float64{0: make([]float64, 3)})
	})
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}
