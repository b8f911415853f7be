package lora

// The (8,4) Hamming code from the paper (§3). The generator matrix rows,
// with data bits first and parity bits last:
//
//	1 0 0 0 1 0 1 1
//	0 1 0 0 1 1 1 0
//	0 0 1 0 1 1 0 1
//	0 0 0 1 0 1 1 1
//
// A codeword for data nibble d (d₁ is the MSB) is the XOR of the rows
// selected by the data bits. Codewords are represented as uint8 with bit 7
// holding codeword bit 1 (so the on-air bit order matches the paper's
// column numbering: column k ↔ bit 8-k).

// generatorRows holds the four generator matrix rows in the bit-7-first
// representation.
var generatorRows = [4]uint8{
	0b10001011,
	0b01001110,
	0b00101101,
	0b00010111,
}

// Codebook16 lists the 16 complete (8,4) codewords indexed by data nibble
// (nibble bit 3 ↔ data bit d₁).
var Codebook16 = buildCodebook()

func buildCodebook() [16]uint8 {
	var cb [16]uint8
	for d := 0; d < 16; d++ {
		var cw uint8
		for row := 0; row < 4; row++ {
			if d&(1<<(3-row)) != 0 {
				cw ^= generatorRows[row]
			}
		}
		cb[d] = cw
	}
	return cb
}

// HammingEncode returns the transmitted codeword for data nibble d at coding
// rate cr: the first 4+cr bits of the complete codeword, except cr 1 where
// the single parity bit is the checksum (XOR) of the four data bits. The
// result is left-aligned in a uint8 (bit 7 = first transmitted bit); the low
// 4-cr bits are zero.
func HammingEncode(d uint8, cr int) uint8 {
	d &= 0x0F
	if cr == 1 {
		chk := (d>>3 ^ d>>2 ^ d>>1 ^ d) & 1
		return d<<4 | chk<<3
	}
	full := Codebook16[d]
	mask := uint8(0xFF) << uint(8-(4+cr))
	return full & mask
}

// checksumBit returns the CR 1 parity (XOR of the 4 data bits) for nibble d.
func checksumBit(d uint8) uint8 {
	return (d>>3 ^ d>>2 ^ d>>1 ^ d) & 1
}

// popcount8 is a tiny 8-bit popcount used in the distance computation.
func popcount8(x uint8) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// HammingDecodeDefault implements LoRa's default decoder: it returns the
// data nibble of the valid codeword closest in Hamming distance to the
// received word, considering only the first 4+cr bits. The second return
// is the distance to the chosen codeword, the third reports whether the
// choice was ambiguous (two codewords at the same minimum distance; the
// lower data nibble is returned in that case).
//
// For cr 1 and 2 the minimum code distance is below 3, so the decoder can
// only detect errors: the nibble with matching data bits is returned and
// the distance reports how many bits disagree.
func HammingDecodeDefault(received uint8, cr int) (data uint8, dist int, ambiguous bool) {
	if cr == 1 {
		d := received >> 4
		chk := received >> 3 & 1
		if checksumBit(d) == chk {
			return d, 0, false
		}
		return d, 1, true
	}
	mask := uint8(0xFF) << uint(8-(4+cr))
	best, bestDist, ties := uint8(0), 9, 0
	for d := 0; d < 16; d++ {
		dist := popcount8((Codebook16[d] ^ received) & mask)
		if dist < bestDist {
			best, bestDist, ties = uint8(d), dist, 1
		} else if dist == bestDist {
			ties++
		}
	}
	return best, bestDist, ties > 1
}
