package dsp

import (
	"math"
	"math/rand"
)

// AddNoise adds circularly-symmetric complex Gaussian noise with total
// variance noisePower (i.e. E|n|² = noisePower) to every element of x.
func AddNoise(x []complex128, noisePower float64, rng *rand.Rand) {
	if noisePower <= 0 {
		return
	}
	sigma := math.Sqrt(noisePower / 2)
	for i := range x {
		x[i] += complex(sigma*rng.NormFloat64(), sigma*rng.NormFloat64())
	}
}

// DBToLinear converts a decibel power ratio to linear scale.
func DBToLinear(db float64) float64 { return math.Pow(10, db/10) }
