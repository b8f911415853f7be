package peaks

import (
	"math"
	"math/rand"
	"testing"

	"tnb/internal/stats"
)

func BenchmarkFindIntoNoise(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, rowsN = 256, 64
	rows := make([][]float64, rowsN)
	sels := make([]float64, rowsN)
	var med stats.Selector
	for r := range rows {
		y := make([]float64, n)
		for i := range y {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = real(v)*real(v) + imag(v)*imag(v)
		}
		if r%3 == 0 { // every third row carries a strong tone
			y[rng.Intn(n)] += 40 * math.Sqrt(float64(n))
		}
		rows[r] = y
		sels[r] = 6 * med.Median(y)
	}
	var dst []Peak
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % rowsN
		dst = FindInto(dst, rows[r], sels[r], 8)
	}
}
