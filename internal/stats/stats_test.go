package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Percentile returns the p-th percentile (0..100) of x using linear
// interpolation between order statistics, by sorting a copy of x. It is the
// oracle every median test compares the Selector against.
func Percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

func TestMedian(t *testing.T) {
	var sel Selector
	if sel.Median(nil) != 0 {
		t.Error("empty-slice median should be 0")
	}
	x := []float64{3, 1, 2}
	if !almostEq(sel.Median(x), 2, 1e-12) {
		t.Errorf("Median = %g", sel.Median(x))
	}
	y := []float64{4, 1, 3, 2}
	if !almostEq(sel.Median(y), 2.5, 1e-12) {
		t.Errorf("even Median = %g", sel.Median(y))
	}
	// Median must not modify its input.
	if x[0] != 3 || x[1] != 1 {
		t.Error("Median modified its input")
	}
}

func TestPercentileBounds(t *testing.T) {
	x := []float64{10, 20, 30, 40}
	if Percentile(x, 0) != 10 || Percentile(x, 100) != 40 {
		t.Error("percentile endpoints wrong")
	}
	if !almostEq(Percentile(x, 50), 25, 1e-12) {
		t.Errorf("P50 = %g", Percentile(x, 50))
	}
	if Percentile(x, -5) != 10 || Percentile(x, 105) != 40 {
		t.Error("out-of-range percentiles should clamp")
	}
}

func TestMedianIsOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var sel Selector
		m1 := sel.Median(x)
		shuffled := append([]float64(nil), x...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return almostEq(m1, sel.Median(shuffled), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMedianAbsResiduals(t *testing.T) {
	x := []float64{1, 2, 3}
	fit := []float64{1.5, 2, 2}
	// residuals {0.5, 0, 1} → median 0.5
	var sel Selector
	if got := sel.MedianAbsResiduals(x, fit); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("residual MAD = %g", got)
	}
	if sel.MedianAbsResiduals(x, nil) != 0 {
		t.Error("empty fit should give 0")
	}
}

func TestMovingAverageConstantSignal(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5}
	for _, w := range []int{1, 2, 3, 9} {
		got := MovingAverageInto(nil, x, w)
		for i, v := range got {
			if !almostEq(v, 5, 1e-12) {
				t.Errorf("w=%d i=%d: %g", w, i, v)
			}
		}
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	x := []float64{0, 10, 0, 10, 0, 10}
	got := MovingAverageInto(nil, x, 3)
	// Interior points average their neighborhoods.
	want := []float64{5, 10.0 / 3, 20.0 / 3, 10.0 / 3, 20.0 / 3, 5}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-9) {
			t.Errorf("i=%d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestMovingAveragePreservesLinearTrendInterior(t *testing.T) {
	x := make([]float64, 20)
	for i := range x {
		x[i] = 2 * float64(i)
	}
	got := MovingAverageInto(nil, x, 5)
	for i := 2; i < len(x)-2; i++ {
		if !almostEq(got[i], x[i], 1e-9) {
			t.Errorf("linear trend not preserved at %d: %g", i, got[i])
		}
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ v, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.v); !almostEq(got, cse.want, 1e-12) {
			t.Errorf("At(%g) = %g, want %g", cse.v, got, cse.want)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	vals, probs := c.Points(5)
	if len(vals) != 5 || len(probs) != 5 {
		t.Fatalf("got %d points", len(vals))
	}
	if !sort.Float64sAreSorted(vals) || !sort.Float64sAreSorted(probs) {
		t.Error("points should be nondecreasing")
	}
	if probs[len(probs)-1] != 1 {
		t.Errorf("last prob %g, want 1", probs[len(probs)-1])
	}
	if v, p := c.Points(0); v != nil || p != nil {
		t.Error("Points(0) should be nil")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0.1, 0.9, 1.5, 2.5, -1, 5}, 0, 3, 3)
	// bins: [0,1): {0.1, 0.9, -1 clamped} = 3, [1,2): {1.5} = 1, [2,3]: {2.5, 5 clamped} = 2
	want := []int{3, 1, 2}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("bin %d = %d, want %d", i, h[i], want[i])
		}
	}
	if Histogram(nil, 1, 0, 3) != nil {
		t.Error("invalid range should return nil")
	}
	if Histogram(nil, 0, 1, 0) != nil {
		t.Error("zero bins should return nil")
	}
}

// TestMedianScratchMatchesMedianExactly pins Selector.Median to the
// sort-based oracle bit for bit, through a fresh selector, one reused
// across every input (so its scratch is often larger than needed) and one
// grown to 2n beforehand.
func TestMedianScratchMatchesMedianExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var reused Selector
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(10) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = x[max(0, i-1)] // duplicates
			default:
				x[i] = rng.ExpFloat64() * 1e3
			}
		}
		want := Percentile(x, 50)
		var fresh, grown Selector
		grown.grow(n)
		for name, sel := range map[string]*Selector{"fresh": &fresh, "reused": &reused, "grown": &grown} {
			if got := sel.Median(x); got != want { // bit-exact: hot paths rely on it
				t.Fatalf("n=%d %s selector: Median = %v, Percentile = %v", n, name, got, want)
			}
		}
	}
}

func TestMedianScratchDoesNotModifyInput(t *testing.T) {
	x := []float64{5, 1, 4, 2, 3}
	var sel Selector
	if got := sel.Median(x); got != 3 {
		t.Fatalf("Median = %v", got)
	}
	if x[0] != 5 || x[1] != 1 || x[4] != 3 {
		t.Fatal("Median modified its input")
	}
	if got, _ := sel.MedianArgMin(x, 2); got != 3 {
		t.Fatalf("MedianArgMin = %v", got)
	}
	if x[0] != 5 || x[1] != 1 || x[4] != 3 {
		t.Fatal("MedianArgMin modified its input")
	}
}

func TestMedianScratchSortedAndReversed(t *testing.T) {
	var sel Selector
	for _, n := range []int{1, 2, 3, 12, 13, 16, 17, 100, 101} {
		asc := make([]float64, n)
		for i := range asc {
			asc[i] = float64(i)
		}
		desc := make([]float64, n)
		for i := range desc {
			desc[i] = float64(n - i)
		}
		if got, want := sel.Median(asc), Percentile(asc, 50); got != want {
			t.Fatalf("sorted n=%d: got %v want %v", n, got, want)
		}
		if got, want := sel.Median(desc), Percentile(desc, 50); got != want {
			t.Fatalf("reversed n=%d: got %v want %v", n, got, want)
		}
	}
}
