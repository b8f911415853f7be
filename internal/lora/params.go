// Package lora implements the LoRa physical layer used by TnB: chirp
// modulation and demodulation, Gray mapping, the diagonal interleaver,
// payload whitening, the (8,4) Hamming code with the generator matrix from
// the paper, the explicit PHY header with its reduced-rate first block, and
// the payload CRC. Encoding and decoding are exact inverses, so a packet
// modulated by this package and demodulated without channel impairments
// yields the original payload bit-for-bit.
package lora

import "fmt"

// Standard LoRa preamble structure (paper §3 and artifact appendix B.3.4):
// 8 base upchirps, 2 sync symbols, 2.25 downchirps.
const (
	PreambleUpchirps  = 8
	SyncSymbols       = 2
	DownchirpQuarters = 9 // 2.25 downchirps = 9 quarter-symbols
	// Sync symbol shifts: the artifact's devices transmit peaks at
	// (1-indexed) locations 9 and 17, i.e. shifts 8 and 16.
	SyncShift1 = 8
	SyncShift2 = 16
)

// HeaderSymbols is the number of symbols in the explicit PHY header block
// (CR 4 → 4+4 interleaver columns).
const HeaderSymbols = 8

// Params bundles the radio parameters of a LoRa link. The zero value is not
// usable; construct with NewParams.
type Params struct {
	SF        int     // spreading factor, 7..12
	CR        int     // coding rate, 1..4 (number of parity bits sent)
	Bandwidth float64 // Hz, e.g. 125 kHz
	OSF       int     // receiver over-sampling factor, ≥ 1
}

// NewParams validates and returns a parameter set. Defaults from the paper's
// Table 3 are applied for zero Bandwidth (125 kHz) and OSF (8).
func NewParams(sf, cr int, bandwidth float64, osf int) (Params, error) {
	if bandwidth == 0 {
		bandwidth = 125e3
	}
	if osf == 0 {
		osf = 8
	}
	p := Params{SF: sf, CR: cr, Bandwidth: bandwidth, OSF: osf}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// MustParams is NewParams that panics on error, for tests and examples.
func MustParams(sf, cr int, bandwidth float64, osf int) Params {
	p, err := NewParams(sf, cr, bandwidth, osf)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate reports whether the parameter combination is supported.
func (p Params) Validate() error {
	if p.SF < 7 || p.SF > 12 {
		return fmt.Errorf("lora: SF %d out of range [7, 12]: the explicit PHY header needs SF >= 7, and LoRa has no SF above 12", p.SF)
	}
	if p.CR < 1 || p.CR > 4 {
		return fmt.Errorf("lora: CR %d out of range [1, 4]", p.CR)
	}
	if p.Bandwidth <= 0 {
		return fmt.Errorf("lora: bandwidth %g must be positive", p.Bandwidth)
	}
	if p.OSF < 1 {
		return fmt.Errorf("lora: OSF %d must be at least 1", p.OSF)
	}
	return nil
}

// N returns the number of chips per symbol, 2^SF.
func (p Params) N() int { return 1 << p.SF }

// SymbolSamples returns the number of receiver samples per symbol, 2^SF·OSF.
func (p Params) SymbolSamples() int { return p.N() * p.OSF }

// SampleRate returns the receiver sample rate in Hz.
func (p Params) SampleRate() float64 { return p.Bandwidth * float64(p.OSF) }

// SymbolDuration returns the symbol time in seconds.
func (p Params) SymbolDuration() float64 { return float64(p.N()) / p.Bandwidth }

// LDRO reports whether the low-data-rate optimization is on: payload
// symbols then carry SF-2 bits (like the header block), trading rate for
// robustness to clock drift on long symbols. Radios turn it on for symbol
// times above 16 ms, which at 125 kHz means SF 11 and 12; the paper's SF 8
// and 10 configurations run without it.
func (p Params) LDRO() bool { return p.SymbolDuration() > 16e-3 }

// PreambleSymbols returns the preamble length in symbols, including the
// 2.25 downchirps (as a fractional count).
func (p Params) PreambleSymbols() float64 {
	return PreambleUpchirps + SyncSymbols + float64(DownchirpQuarters)/4
}

// PreambleSamples returns the preamble length in receiver samples.
func (p Params) PreambleSamples() int {
	return (PreambleUpchirps+SyncSymbols)*p.SymbolSamples() + DownchirpQuarters*p.SymbolSamples()/4
}

// codewordLen returns the transmitted codeword length in bits, 4+CR.
func (p Params) codewordLen() int { return 4 + p.CR }

// headerRows returns the number of codeword rows in the reduced-rate first
// block (SF-2, per the LoRa specification's low-rate header encoding).
func (p Params) headerRows() int { return p.SF - 2 }

// payloadRows returns the codeword rows per payload block: SF normally,
// SF-2 with the low-data-rate optimization.
func (p Params) payloadRows() int {
	if p.LDRO() {
		return p.SF - 2
	}
	return p.SF
}

// PayloadSymbols returns the number of data symbols (after the preamble)
// needed to carry payloadLen bytes plus the 2-byte CRC: the 8-symbol header
// block plus full payload blocks.
func (p Params) PayloadSymbols(payloadLen int) int {
	nib := totalNibbles(payloadLen)
	inHeader := p.headerRows() - headerNibbles // payload nibbles in first block
	if inHeader < 0 {
		inHeader = 0
	}
	rest := nib - inHeader
	if rest < 0 {
		rest = 0
	}
	rows := p.payloadRows()
	blocks := (rest + rows - 1) / rows
	return HeaderSymbols + blocks*p.codewordLen()
}

// PacketSamples returns the full packet length in receiver samples.
func (p Params) PacketSamples(payloadLen int) int {
	return p.PreambleSamples() + p.PayloadSymbols(payloadLen)*p.SymbolSamples()
}

// totalNibbles returns the number of payload nibbles on air for a payload of
// n bytes: payload plus the 16-bit CRC.
func totalNibbles(n int) int { return 2 * (n + crcBytes) }

// String describes the parameter set compactly, e.g. "SF8-CR4".
func (p Params) String() string {
	return fmt.Sprintf("SF%d-CR%d", p.SF, p.CR)
}
