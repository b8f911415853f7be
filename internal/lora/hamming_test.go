package lora

import (
	"testing"
	"testing/quick"
)

func TestCodebookMatchesPaperExample(t *testing.T) {
	// Paper §3: data '1001' encodes to '10011100' (rows 1 and 4 summed).
	d := uint8(0b1001)
	if got := Codebook16[d]; got != 0b10011100 {
		t.Errorf("codeword for 1001 = %08b, want 10011100", got)
	}
}

func TestCodebookWeightDistribution(t *testing.T) {
	// The paper's generator matrix produces the extended (8,4) Hamming
	// code: every nonzero codeword has weight 4 or 8 (appendix A.1 relies
	// on the weight-4 codewords for companion groups).
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			if d := popcount8(Codebook16[a] ^ Codebook16[b]); d != 4 && d != 8 {
				t.Errorf("codewords %d,%d at distance %d", a, b, d)
			}
		}
	}
}

func TestCompanionExampleFromPaper(t *testing.T) {
	// Paper §6.1 (CR 3): a vector with 1s only in columns 2, 3, 7 is a
	// valid punctured codeword, making column 3 the companion of {2, 7}.
	target := uint8(0b01100010) // columns 2, 3, 7 set (bit 7 = column 1)
	found := false
	for d := 0; d < 16; d++ {
		if HammingEncode(uint8(d), 3) == target {
			found = true
		}
	}
	if !found {
		t.Errorf("no CR3 codeword with 1s in columns 2,3,7 (%07b)", target>>1)
	}
}

// minDistance returns the minimum Hamming distance of the punctured code at
// coding rate cr (cr 1 uses the checksum construction: 4 data bits + XOR
// checksum, so any nonzero codeword has weight at least 2).
func minDistance(cr int) int {
	if cr == 1 {
		return 2
	}
	mask := uint8(0xFF) << uint(8-(4+cr))
	minD := 9
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			if d := popcount8((Codebook16[a] ^ Codebook16[b]) & mask); d < minD {
				minD = d
			}
		}
	}
	return minD
}

func TestMinDistance(t *testing.T) {
	cases := map[int]int{1: 2, 2: 2, 3: 3, 4: 4}
	for cr, want := range cases {
		if got := minDistance(cr); got != want {
			t.Errorf("minDistance(CR%d) = %d, want %d", cr, got, want)
		}
	}
}

func TestHammingEncodeDecodeClean(t *testing.T) {
	for cr := 1; cr <= 4; cr++ {
		for d := uint8(0); d < 16; d++ {
			cw := HammingEncode(d, cr)
			got, dist, _ := HammingDecodeDefault(cw, cr)
			if got != d || dist != 0 {
				t.Errorf("CR%d d=%d: decoded %d dist %d", cr, d, got, dist)
			}
		}
	}
}

func TestHammingCorrectsSingleBitCR3CR4(t *testing.T) {
	for _, cr := range []int{3, 4} {
		bits := 4 + cr
		for d := uint8(0); d < 16; d++ {
			cw := HammingEncode(d, cr)
			for b := 0; b < bits; b++ {
				corrupted := cw ^ 1<<uint(7-b)
				got, dist, amb := HammingDecodeDefault(corrupted, cr)
				if got != d {
					t.Errorf("CR%d d=%d flip bit %d: decoded %d", cr, d, b, got)
				}
				if dist != 1 || amb {
					t.Errorf("CR%d d=%d flip bit %d: dist=%d amb=%v", cr, d, b, dist, amb)
				}
			}
		}
	}
}

func TestHammingDetectsSingleBitCR1CR2(t *testing.T) {
	for _, cr := range []int{1, 2} {
		bits := 4 + cr
		for d := uint8(0); d < 16; d++ {
			cw := HammingEncode(d, cr)
			for b := 0; b < bits; b++ {
				corrupted := cw ^ 1<<uint(7-b)
				_, dist, _ := HammingDecodeDefault(corrupted, cr)
				if dist == 0 {
					t.Errorf("CR%d d=%d flip bit %d: error not detected", cr, d, b)
				}
			}
		}
	}
}

func TestCR1ChecksumBit(t *testing.T) {
	// CR 1 transmits 4 data bits plus their XOR (paper §3).
	for d := uint8(0); d < 16; d++ {
		cw := HammingEncode(d, 1)
		if cw>>4 != d {
			t.Errorf("d=%d: data bits %04b", d, cw>>4)
		}
		want := (d>>3 ^ d>>2 ^ d>>1 ^ d) & 1
		if cw>>3&1 != want {
			t.Errorf("d=%d: checksum bit %d, want %d", d, cw>>3&1, want)
		}
		if cw&0x07 != 0 {
			t.Errorf("d=%d: unused bits set: %08b", d, cw)
		}
	}
}

func TestHammingLinearity(t *testing.T) {
	// The code is linear: encode(a) XOR encode(b) == encode(a XOR b).
	f := func(a, b uint8) bool {
		a, b = a&0x0F, b&0x0F
		return Codebook16[a]^Codebook16[b] == Codebook16[a^b]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPuncturedCodewordMask checks HammingEncode's CR 2–4 codewords are the
// complete codeword of Codebook16 cut to its first 4+cr bits.
func TestPuncturedCodewordMask(t *testing.T) {
	for cr := 2; cr <= 4; cr++ {
		mask := uint8(0xFF) << uint(8-(4+cr))
		for d := uint8(0); d < 16; d++ {
			if got, want := HammingEncode(d, cr), Codebook16[d]&mask; got != want {
				t.Errorf("CR%d d=%d: encode %08b, punctured codeword %08b", cr, d, got, want)
			}
		}
	}
}
