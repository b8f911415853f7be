package bec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tnb/internal/lora"
)

// Property-based tests of BEC's structural invariants.

func TestPropCompanionSymmetry(t *testing.T) {
	// If Π' is a companion of Π, then Π is a companion of Π'.
	f := func(seed int64, crRaw uint8) bool {
		cr := 2 + int(crRaw%3) // 2, 3, 4
		rng := rand.New(rand.NewSource(seed))
		size := 1
		if cr >= 3 {
			size = 1 + rng.Intn(cr-1)
		}
		cols := rng.Perm(4 + cr)[:size]
		var pi ColSet
		for _, c := range cols {
			pi |= Col(c + 1)
		}
		for _, comp := range Companions(pi, cr) {
			back := Companions(comp, cr)
			found := false
			for _, b := range back {
				if b == pi {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropCompanionSizesSumToCR(t *testing.T) {
	// |Π| + |Π'| = CR for every companion (paper §6.2).
	for cr := 2; cr <= 4; cr++ {
		for mask := 1; mask < 1<<(4+cr); mask++ {
			pi := ColSet(uint8(mask) << uint(8-(4+cr)))
			if pi.Size() >= cr {
				continue
			}
			for _, comp := range Companions(pi, cr) {
				if pi.Size()+comp.Size() != cr {
					t.Fatalf("CR%d: |%v|+|%v| != %d", cr, pi.Columns(), comp.Columns(), cr)
				}
				if pi&comp != 0 {
					t.Fatalf("CR%d: companion overlaps Π", cr)
				}
			}
		}
	}
}

func TestPropDecodeNeverPanicsOnRandomBlocks(t *testing.T) {
	// Arbitrary (even non-codeword) received blocks must decode without
	// panicking, and every returned candidate must consist of valid
	// codewords.
	f := func(seed int64, crRaw, rowsRaw uint8) bool {
		cr := 1 + int(crRaw%4)
		rows := 7 + int(rowsRaw%6)
		rng := rand.New(rand.NewSource(seed))
		b := lora.NewBlock(rows, 4+cr)
		for r := 0; r < rows; r++ {
			for c := 0; c < b.Cols; c++ {
				b.Bits[r][c] = uint8(rng.Intn(2))
			}
		}
		res := DecodeBlock(b, cr)
		for _, cand := range res.Candidates {
			for r := 0; r < cand.Rows; r++ {
				row := cand.RowCodeword(r)
				ok := false
				for d := 0; d < 16; d++ {
					if lora.HammingEncode(uint8(d), cr) == row {
						ok = true
						break
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropRepairMaskIdempotent(t *testing.T) {
	// Repairing an already-valid block with any column set returns the
	// block itself.
	f := func(seed int64, crRaw uint8) bool {
		cr := 2 + int(crRaw%3)
		rng := rand.New(rand.NewSource(seed))
		b := lora.NewBlock(8, 4+cr)
		for r := 0; r < 8; r++ {
			b.SetRowCodeword(r, lora.HammingEncode(uint8(rng.Intn(16)), cr))
		}
		// Fewer columns than the punctured code's minimum distance, which
		// is cr for CR 2–4 (lora's TestMinDistance pins it).
		size := 1 + rng.Intn(2)
		if size >= cr {
			size = cr - 1
		}
		cols := rng.Perm(4 + cr)[:size]
		var pi ColSet
		for _, c := range cols {
			pi |= Col(c + 1)
		}
		fixed := RepairMask(b, pi, cr)
		return fixed != nil && fixed.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropPacketDecoderDeterministic(t *testing.T) {
	// The same corrupted packet decodes identically across decoder
	// instances with the same seed.
	p := lora.MustParams(8, 4, 125e3, 8)
	payload := []uint8("determinism!!!")
	shifts, _, err := lora.Encode(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(500))
	for trial := 0; trial < 20; trial++ {
		c := corruptShiftSymbols(rng, p, shifts, 2, true)
		a := NewPacketDecoder(0, rand.New(rand.NewSource(7))).DecodePacket(p, c)
		b := NewPacketDecoder(0, rand.New(rand.NewSource(7))).DecodePacket(p, c)
		if a.OK != b.OK || string(a.Payload) != string(b.Payload) {
			t.Fatalf("trial %d: nondeterministic decode", trial)
		}
	}
}

func TestPropNoErrorImpliesCleanEqualsReceivedOrDistOne(t *testing.T) {
	// When BEC reports NoError for CR >= 3, the cleaned block differs
	// from the received block in at most one column.
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 300; trial++ {
		cr := 3 + trial%2
		b := lora.NewBlock(8, 4+cr)
		for r := 0; r < 8; r++ {
			b.SetRowCodeword(r, lora.HammingEncode(uint8(rng.Intn(16)), cr))
		}
		// Corrupt at most one column lightly.
		if trial%3 != 0 {
			col := rng.Intn(4 + cr)
			b.Bits[rng.Intn(8)][col] ^= 1
		}
		res := DecodeBlock(b, cr)
		if !res.NoError {
			continue
		}
		diffCols := map[int]bool{}
		clean := res.Candidates[0]
		for r := 0; r < 8; r++ {
			for c := 0; c < b.Cols; c++ {
				if clean.Bits[r][c] != b.Bits[r][c] {
					diffCols[c] = true
				}
			}
		}
		if len(diffCols) > 1 {
			t.Fatalf("trial %d: NoError with %d differing columns", trial, len(diffCols))
		}
	}
}
