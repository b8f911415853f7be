package lora

import (
	"bytes"
	"math/rand"
	"testing"
)

// Tests for the LDRO extension.

// TestLDRODerivedFromSymbolTime pins the rule: LDRO is on exactly when a
// symbol lasts longer than 16 ms.
func TestLDRODerivedFromSymbolTime(t *testing.T) {
	for _, c := range []struct {
		sf   int
		bw   float64
		want bool
	}{
		{7, 125e3, false}, {8, 125e3, false}, {9, 125e3, false}, {10, 125e3, false},
		{11, 125e3, true}, {12, 125e3, true},
		{11, 250e3, false}, {12, 250e3, true}, {12, 500e3, false},
	} {
		if got := MustParams(c.sf, 4, c.bw, 8).LDRO(); got != c.want {
			t.Errorf("SF %d at %g Hz: LDRO %v, want %v", c.sf, c.bw, got, c.want)
		}
	}
}

func TestLDRORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	for _, sf := range []int{11, 12} {
		for cr := 1; cr <= 4; cr++ {
			p := MustParams(sf, cr, 125e3, 8)
			for _, ln := range []int{0, 5, 16, 40} {
				payload := make([]uint8, ln)
				rng.Read(payload)
				shifts, lay, err := Encode(p, payload)
				if err != nil {
					t.Fatalf("SF%d CR%d len%d: %v", sf, cr, ln, err)
				}
				if len(shifts) != lay.DataSymbols {
					t.Fatalf("SF%d CR%d: %d shifts vs layout %d", sf, cr, len(shifts), lay.DataSymbols)
				}
				// All LDRO symbols land on the reduced-rate grid.
				for i, s := range shifts {
					if s%4 != 0 {
						t.Fatalf("SF%d CR%d: symbol %d shift %d not on the x4 grid", sf, cr, i, s)
					}
				}
				res := DecodeDefault(p, shifts)
				if !res.OK || !bytes.Equal(res.Payload, payload) {
					t.Fatalf("SF%d CR%d len%d: LDRO decode failed", sf, cr, ln)
				}
			}
		}
	}
}

func TestLDROAbsorbsLargerBinErrors(t *testing.T) {
	// The point of LDRO: a ±1 bin error (clock drift on long symbols) is
	// absorbed by the grid rounding before Gray decoding.
	p := MustParams(11, 4, 125e3, 8)
	payload := []uint8("drift-proof!!")
	shifts, _, err := Encode(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(601))
	for trial := 0; trial < 40; trial++ {
		c := append([]int(nil), shifts...)
		// ±1 bin error on every symbol.
		for i := range c {
			c[i] = (c[i] + 1 - 2*rng.Intn(2) + p.N()) % p.N()
		}
		res := DecodeDefault(p, c)
		if !res.OK || !bytes.Equal(res.Payload, payload) {
			t.Fatalf("trial %d: LDRO did not absorb ±1 bin errors", trial)
		}
	}
}

func TestLDROUsesMoreSymbols(t *testing.T) {
	// SF 11 at 250 kHz runs without LDRO, at 125 kHz with it.
	plain := MustParams(11, 4, 250e3, 8).PayloadSymbols(20)
	if ldro := MustParams(11, 4, 125e3, 8).PayloadSymbols(20); ldro <= plain {
		t.Errorf("LDRO symbols %d should exceed plain %d", ldro, plain)
	}
}
