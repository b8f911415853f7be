package lora

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGrayRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		v &= 0xFFF
		return GrayInverse(Gray(v)) == v && Gray(GrayInverse(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrayAdjacency(t *testing.T) {
	// Adjacent values differ in exactly one bit after Gray coding — the
	// property that makes ±1 demodulation errors single-bit errors.
	for v := uint32(0); v < 4096; v++ {
		d := Gray(v) ^ Gray(v+1)
		if d == 0 || d&(d-1) != 0 {
			t.Fatalf("Gray(%d) and Gray(%d) differ in more than one bit", v, v+1)
		}
	}
}

func TestWhitenSelfInverse(t *testing.T) {
	f := func(data []byte) bool {
		orig := append([]byte(nil), data...)
		Whiten(data)
		Whiten(data)
		return bytes.Equal(orig, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWhitenSequenceNontrivial(t *testing.T) {
	seq := make([]uint8, 256)
	Whiten(seq) // whitening zeros yields the sequence itself
	// The LFSR must not get stuck and must produce a rich sequence.
	seen := map[uint8]bool{}
	for _, b := range seq {
		seen[b] = true
	}
	if len(seen) < 100 {
		t.Errorf("whitening sequence has only %d distinct bytes in 256", len(seen))
	}
	if seq[0] != 0xFF {
		t.Errorf("sequence must start at the seed, got %#x", seq[0])
	}
}

func TestWhitenChangesData(t *testing.T) {
	data := make([]byte, 32) // all zeros
	Whiten(data)
	allZero := true
	for _, b := range data {
		if b != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Error("whitening left an all-zero payload unchanged")
	}
}

func TestCRCRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		got, ok := CheckCRC(AppendCRC(payload))
		return ok && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	payload := []byte("hello lora world")
	data := AppendCRC(payload)
	for i := range data {
		corrupted := append([]byte(nil), data...)
		corrupted[i] ^= 0x40
		if _, ok := CheckCRC(corrupted); ok {
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
	if _, ok := CheckCRC([]byte{0x01}); ok {
		t.Error("short input should fail")
	}
}

func TestCRC16KnownValue(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("CRC16 check value = %#04x, want 0x29b1", got)
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rows := range []int{5, 6, 8, 10, 12} {
		for _, cols := range []int{5, 6, 7, 8} {
			b := NewBlock(rows, cols)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					b.Bits[r][c] = uint8(rng.Intn(2))
				}
			}
			syms := b.Interleave()
			got := NewBlock(rows, cols)
			got.DeinterleaveInto(syms)
			if !got.Equal(b) {
				t.Errorf("rows=%d cols=%d: interleave round-trip failed", rows, cols)
			}
		}
	}
}

func TestInterleaveSymbolCorruptionHitsOneColumn(t *testing.T) {
	// The property BEC depends on: corrupting one transmitted symbol
	// corrupts exactly one column of the deinterleaved block.
	rng := rand.New(rand.NewSource(8))
	rows, cols := 8, 7
	b := NewBlock(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.Bits[r][c] = uint8(rng.Intn(2))
		}
	}
	syms := b.Interleave()
	for j := range syms {
		corrupted := append([]uint32(nil), syms...)
		corrupted[j] ^= uint32(1 + rng.Intn(1<<rows-1))
		got := NewBlock(rows, cols)
		got.DeinterleaveInto(corrupted)
		diffCols := map[int]bool{}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if got.Bits[r][c] != b.Bits[r][c] {
					diffCols[c] = true
				}
			}
		}
		if len(diffCols) != 1 || !diffCols[j] {
			t.Errorf("symbol %d corruption affected columns %v", j, diffCols)
		}
	}
}

func TestBlockRowCodewordRoundTrip(t *testing.T) {
	b := NewBlock(4, 8)
	for _, cw := range []uint8{0x00, 0xFF, 0b10011100, 0b01010101} {
		b.SetRowCodeword(2, cw)
		if got := b.RowCodeword(2); got != cw {
			t.Errorf("row codeword %08b round-tripped to %08b", cw, got)
		}
	}
	// Partial columns: only the first Cols bits survive.
	p := NewBlock(4, 5)
	p.SetRowCodeword(0, 0b11111111)
	if got := p.RowCodeword(0); got != 0b11111000 {
		t.Errorf("5-column row = %08b", got)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for _, ln := range []int{0, 1, 16, 100, 255} {
		for cr := 1; cr <= 4; cr++ {
			nib, err := EncodeHeader(Header{PayloadLen: ln, CR: cr, HasCRC: true})
			if err != nil {
				t.Fatalf("EncodeHeader: %v", err)
			}
			got, ok := DecodeHeader(nib)
			if !ok || got.PayloadLen != ln || got.CR != cr || !got.HasCRC {
				t.Errorf("len=%d cr=%d: got %+v ok=%v", ln, cr, got, ok)
			}
		}
	}
}

func TestHeaderChecksumDetectsCorruption(t *testing.T) {
	nib, _ := EncodeHeader(Header{PayloadLen: 16, CR: 3, HasCRC: true})
	misses := 0
	for i := 0; i < 3; i++ { // corrupt the content nibbles
		for bit := 0; bit < 4; bit++ {
			c := append([]uint8(nil), nib...)
			c[i] ^= 1 << uint(bit)
			if h, ok := DecodeHeader(c); ok {
				// A corrupted header may still parse if CR became invalid
				// is filtered; count undetected corruptions.
				_ = h
				misses++
			}
		}
	}
	if misses > 0 {
		t.Errorf("%d single-bit header corruptions undetected", misses)
	}
}

func TestEncodeHeaderRejectsBadInput(t *testing.T) {
	if _, err := EncodeHeader(Header{PayloadLen: 300, CR: 3}); err == nil {
		t.Error("expected error for oversized payload")
	}
	if _, err := EncodeHeader(Header{PayloadLen: 10, CR: 0}); err == nil {
		t.Error("expected error for CR 0")
	}
	if _, ok := DecodeHeader([]uint8{1, 2}); ok {
		t.Error("short nibble slice should fail")
	}
}

func TestEncodeDecodeRoundTripAllParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sf := range []int{7, 8, 9, 10, 11, 12} {
		for cr := 1; cr <= 4; cr++ {
			for _, ln := range []int{0, 1, 5, 16, 49} {
				p := MustParams(sf, cr, 125e3, 8)
				payload := make([]uint8, ln)
				rng.Read(payload)
				shifts, lay, err := Encode(p, payload)
				if err != nil {
					t.Fatalf("SF%d CR%d len%d: %v", sf, cr, ln, err)
				}
				if len(shifts) != lay.DataSymbols {
					t.Fatalf("SF%d CR%d len%d: %d shifts, layout says %d",
						sf, cr, ln, len(shifts), lay.DataSymbols)
				}
				res := DecodeDefault(p, shifts)
				if !res.OK {
					t.Fatalf("SF%d CR%d len%d: decode failed", sf, cr, ln)
				}
				if !bytes.Equal(res.Payload, payload) {
					t.Fatalf("SF%d CR%d len%d: payload mismatch", sf, cr, ln)
				}
				if res.Header.CR != cr || res.Header.PayloadLen != ln {
					t.Fatalf("SF%d CR%d len%d: header %+v", sf, cr, ln, res.Header)
				}
			}
		}
	}
}

func TestEncodeRejectsSF6(t *testing.T) {
	if _, err := NewParams(6, 4, 125e3, 8); err == nil {
		t.Error("NewParams accepted SF 6")
	}
	p := Params{SF: 6, CR: 4, Bandwidth: 125e3, OSF: 8}
	if _, _, err := Encode(p, []uint8{1, 2, 3}); err == nil {
		t.Error("expected error for SF 6 explicit header")
	}
}

func TestDecodeSurvivesSingleBitErrorsCR3(t *testing.T) {
	// One flipped bit per payload-block symbol stays within the default
	// decoder's power for CR >= 3.
	p := MustParams(8, 3, 125e3, 8)
	payload := []uint8("abcdefghij123456")
	shifts, lay, err := Encode(p, payload)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		c := append([]int(nil), shifts...)
		// A ±1 bin error on a payload symbol flips one Gray bit.
		idx := HeaderSymbols + rng.Intn(lay.DataSymbols-HeaderSymbols)
		c[idx] = (c[idx] + 1) % p.N()
		res := DecodeDefault(p, c)
		if !res.OK || !bytes.Equal(res.Payload, payload) {
			t.Fatalf("trial %d: ±1 bin error at symbol %d not corrected", trial, idx)
		}
	}
}

func TestLayoutSymbolCountsMatchParams(t *testing.T) {
	for _, sf := range []int{7, 8, 10, 12} {
		for cr := 1; cr <= 4; cr++ {
			p := MustParams(sf, cr, 125e3, 8)
			for _, ln := range []int{0, 16, 64} {
				lay, err := NewLayout(p, ln)
				if err != nil {
					t.Fatal(err)
				}
				if got := p.PayloadSymbols(ln); got != lay.DataSymbols {
					t.Errorf("SF%d CR%d len%d: PayloadSymbols=%d layout=%d",
						sf, cr, ln, got, lay.DataSymbols)
				}
			}
		}
	}
}

func TestPaperPacketSize(t *testing.T) {
	// Paper §6.1: "a packet with 16 bytes has only 3 to 5 blocks depending
	// on the SF and CR". 16 bytes of payload, including its CRC, should
	// land in that range (header block + payload blocks).
	for _, sf := range []int{8, 10} {
		for cr := 1; cr <= 4; cr++ {
			p := MustParams(sf, cr, 125e3, 8)
			lay, err := NewLayout(p, 14) // 14 data + 2 CRC = 16 bytes on air
			if err != nil {
				t.Fatal(err)
			}
			blocks := 1 + lay.PayloadBlocks
			if blocks < 3 || blocks > 6 {
				t.Errorf("SF%d CR%d: %d blocks for a 16-byte packet", sf, cr, blocks)
			}
		}
	}
}
