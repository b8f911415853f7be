package lora

import "fmt"

// Frame codec: payload bytes ↔ chirp shifts.
//
// Encode pipeline (§3 of the paper, mirroring the LoRa specification):
//
//	payload → +CRC16 → whitening → nibbles (low first) →
//	header block (SF-2 rows, CR 4, reduced-rate symbols) +
//	payload blocks (SF rows, 4+CR columns) →
//	Hamming(8,4) per row → diagonal interleave → Gray⁻¹ → chirp shifts
//
// The decode path inverts each step; DecodeDefault applies the default
// per-row Hamming decoder, while the bec package consumes the received
// blocks produced by SymbolsToBlocks for joint decoding.

// Layout describes how a payload of a given length maps onto blocks and
// symbols for a parameter set.
type Layout struct {
	Params        Params
	PayloadLen    int // payload bytes excluding CRC
	TotalNibbles  int // payload+CRC nibbles on air
	HeaderRows    int // rows in the reduced-rate first block (SF-2)
	PayloadBlocks int // number of full-rate blocks after the header block
	DataSymbols   int // total data symbols: 8 + PayloadBlocks·(4+CR)
}

// NewLayout computes the frame layout. SF must be at least 7 so the explicit
// header fits in the reduced-rate block.
func NewLayout(p Params, payloadLen int) (Layout, error) {
	if err := p.Validate(); err != nil {
		return Layout{}, err
	}
	if p.SF < 7 {
		return Layout{}, fmt.Errorf("lora: explicit header requires SF >= 7, got %d", p.SF)
	}
	if payloadLen < 0 || payloadLen > 255 {
		return Layout{}, fmt.Errorf("lora: payload length %d out of range [0, 255]", payloadLen)
	}
	nib := totalNibbles(payloadLen)
	inHeader := p.headerRows() - headerNibbles
	rest := nib - inHeader
	if rest < 0 {
		rest = 0
	}
	rows := p.payloadRows()
	blocks := (rest + rows - 1) / rows
	return Layout{
		Params:        p,
		PayloadLen:    payloadLen,
		TotalNibbles:  nib,
		HeaderRows:    p.headerRows(),
		PayloadBlocks: blocks,
		DataSymbols:   HeaderSymbols + blocks*p.codewordLen(),
	}, nil
}

// airNibbles builds the whitened payload+CRC nibble stream (low nibble of
// each byte first).
func airNibbles(payload []uint8) []uint8 {
	data := AppendCRC(payload)
	Whiten(data)
	nib := make([]uint8, 0, 2*len(data))
	for _, b := range data {
		nib = append(nib, b&0x0F, b>>4)
	}
	return nib
}

// bytesFromNibbles inverts airNibbles: pairs nibbles into bytes, dewhitens,
// and verifies/strips the CRC.
func bytesFromNibbles(nib []uint8, payloadLen int) ([]uint8, bool) {
	need := 2 * (payloadLen + crcBytes)
	if len(nib) < need {
		return nil, false
	}
	data := make([]uint8, payloadLen+crcBytes)
	for i := range data {
		data[i] = nib[2*i]&0x0F | nib[2*i+1]<<4
	}
	Whiten(data)
	return CheckCRC(data)
}

// Encode maps a payload to the sequence of data-symbol chirp shifts
// (preamble not included). The header advertises the payload length and CR.
func Encode(p Params, payload []uint8) ([]int, Layout, error) {
	lay, err := NewLayout(p, len(payload))
	if err != nil {
		return nil, Layout{}, err
	}
	hdrNib, err := EncodeHeader(Header{PayloadLen: len(payload), CR: p.CR, HasCRC: true})
	if err != nil {
		return nil, Layout{}, err
	}
	nib := airNibbles(payload)

	// Row stream: header nibbles, then payload nibbles, zero padding.
	take := func(i int) uint8 {
		if i < len(hdrNib) {
			return hdrNib[i]
		}
		i -= len(hdrNib)
		if i < len(nib) {
			return nib[i]
		}
		return 0
	}

	shifts := make([]int, 0, lay.DataSymbols)
	pos := 0

	// Header block: SF-2 rows, always CR 4, reduced-rate symbols.
	hb := NewBlock(lay.HeaderRows, 8)
	for r := 0; r < hb.Rows; r++ {
		hb.SetRowCodeword(r, HammingEncode(take(pos), 4))
		pos++
	}
	for _, bits := range hb.Interleave() {
		shifts = append(shifts, int(GrayInverse(bits))<<2)
	}

	// Payload blocks: SF rows and full-rate symbols normally; SF-2 rows
	// and reduced-rate symbols with LDRO.
	rows := p.payloadRows()
	for b := 0; b < lay.PayloadBlocks; b++ {
		blk := NewBlock(rows, p.codewordLen())
		for r := 0; r < rows; r++ {
			blk.SetRowCodeword(r, HammingEncode(take(pos), p.CR))
			pos++
		}
		for _, bits := range blk.Interleave() {
			if p.LDRO() {
				shifts = append(shifts, int(GrayInverse(bits))<<2)
			} else {
				shifts = append(shifts, int(GrayInverse(bits)))
			}
		}
	}
	return shifts, lay, nil
}

// HeaderBlockFromShifts deinterleaves the first 8 data symbols into the
// received header block (SF-2 rows × 8 columns). Reduced-rate symbols are
// rounded to the nearest multiple of 4 before Gray decoding, absorbing ±1
// bin demodulation errors.
func HeaderBlockFromShifts(p Params, shifts []int) *Block {
	rows := p.headerRows()
	b := NewBlock(rows, 8)
	syms := make([]uint32, 0, HeaderSymbols)
	mod := uint32(1) << uint(rows)
	for i := 0; i < HeaderSymbols && i < len(shifts); i++ {
		v := (uint32(shifts[i]) + 2) >> 2 % mod // round to reduced-rate grid
		syms = append(syms, Gray(v))
	}
	b.DeinterleaveInto(syms)
	return b
}

// PayloadBlocksFromShifts deinterleaves the post-header data symbols into
// received payload blocks. With LDRO, symbols are rounded to the
// reduced-rate grid first (as for the header block).
func PayloadBlocksFromShifts(p Params, shifts []int, nblocks int) []*Block {
	out := make([]*Block, 0, nblocks)
	cw := p.codewordLen()
	rows := p.payloadRows()
	for b := 0; b < nblocks; b++ {
		blk := NewBlock(rows, cw)
		syms := make([]uint32, 0, cw)
		for j := 0; j < cw; j++ {
			idx := HeaderSymbols + b*cw + j
			var v uint32
			if idx < len(shifts) {
				if p.LDRO() {
					v = (uint32(shifts[idx]) + 2) >> 2 % (uint32(1) << uint(rows))
				} else {
					v = uint32(shifts[idx]) % uint32(p.N())
				}
			}
			syms = append(syms, Gray(v))
		}
		blk.DeinterleaveInto(syms)
		out = append(out, blk)
	}
	return out
}

// NibblesFromBlocks extracts the data nibbles from the (cleaned) header and
// payload blocks: the data half of each codeword row, skipping the header
// nibbles.
func NibblesFromBlocks(headerBlock *Block, payloadBlocks []*Block) []uint8 {
	var nib []uint8
	for r := headerNibbles; r < headerBlock.Rows; r++ {
		nib = append(nib, headerBlock.RowCodeword(r)>>4)
	}
	for _, blk := range payloadBlocks {
		for r := 0; r < blk.Rows; r++ {
			nib = append(nib, blk.RowCodeword(r)>>4)
		}
	}
	return nib
}

// CleanBlock applies the default Hamming decoder row by row, returning the
// cleaned block (every row snapped to the nearest codeword, paper Fig. 2).
// BEC uses it to compute the cleaned block Γ.
func CleanBlock(b *Block, cr int) *Block {
	out := NewBlock(b.Rows, b.Cols)
	for r := 0; r < b.Rows; r++ {
		data, _, _ := HammingDecodeDefault(b.RowCodeword(r), cr)
		out.SetRowCodeword(r, HammingEncode(data, cr))
	}
	return out
}

// DecodeResult reports a frame decode.
type DecodeResult struct {
	Header  Header
	Payload []uint8
	OK      bool // header checksum and payload CRC both passed
}

// DecodeDefault decodes data-symbol shifts with the default (per-codeword)
// Hamming decoder: the baseline LoRaPHY behaviour.
func DecodeDefault(p Params, shifts []int) DecodeResult {
	hb := HeaderBlockFromShifts(p, shifts)
	hClean := CleanBlock(hb, 4)
	var hdrNib []uint8
	for r := 0; r < headerNibbles && r < hClean.Rows; r++ {
		hdrNib = append(hdrNib, hClean.RowCodeword(r)>>4)
	}
	hdr, ok := DecodeHeader(hdrNib)
	if !ok {
		return DecodeResult{Header: hdr}
	}
	pp := p
	pp.CR = hdr.CR
	lay, err := NewLayout(pp, hdr.PayloadLen)
	if err != nil {
		return DecodeResult{Header: hdr}
	}
	blocks := PayloadBlocksFromShifts(pp, shifts, lay.PayloadBlocks)
	cleaned := make([]*Block, len(blocks))
	for i, b := range blocks {
		cleaned[i] = CleanBlock(b, pp.CR)
	}
	nib := NibblesFromBlocks(hClean, cleaned)
	payload, ok := bytesFromNibbles(nib, hdr.PayloadLen)
	return DecodeResult{Header: hdr, Payload: payload, OK: ok}
}

// HeaderFromCleanBlock extracts and validates the PHY header from a cleaned
// header block. It returns the header and whether its checksum passed.
func HeaderFromCleanBlock(b *Block) (Header, bool) {
	var nib []uint8
	for r := 0; r < headerNibbles && r < b.Rows; r++ {
		nib = append(nib, b.RowCodeword(r)>>4)
	}
	return DecodeHeader(nib)
}

// AssemblePayload extracts the payload from cleaned header and payload
// blocks, dewhitens it and verifies the packet CRC. It is the packet-level
// check BEC uses to select among candidate repaired blocks (paper §6.9).
func AssemblePayload(headerBlock *Block, payloadBlocks []*Block, payloadLen int) ([]uint8, bool) {
	nib := NibblesFromBlocks(headerBlock, payloadBlocks)
	return bytesFromNibbles(nib, payloadLen)
}
