package lora

import (
	"bytes"
	"math/rand"
	"testing"
)

// Tests for the LDRO extension.

func TestLDRORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	for _, sf := range []int{9, 11, 12} {
		for cr := 1; cr <= 4; cr++ {
			p := MustParams(sf, cr, 125e3, 8)
			p.LDRO = true
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
	p.LDRO = true
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
	p := MustParams(10, 4, 125e3, 8)
	plain := p.PayloadSymbols(20)
	p.LDRO = true
	if ldro := p.PayloadSymbols(20); ldro <= plain {
		t.Errorf("LDRO symbols %d should exceed plain %d", ldro, plain)
	}
}
