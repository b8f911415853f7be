package peaks

import (
	"math"
	"strconv"

	"tnb/internal/lora"
	"tnb/internal/parallel"
)

// Calculator computes and caches the signal vectors of one detected packet:
// for each data symbol, Y = |FFT(symbol ⊙ C')|² aligned to the packet's
// estimated boundary and corrected by its estimated CFO, summed over
// antennas (paper §3–§4). Negative symbol indices address the preamble
// upchirps, used to bootstrap Thrive's peak-height history.
//
// The cache is a dense slice indexed by idx + preambleOffset over one
// contiguous arena, so a fully materialized packet costs two allocations
// instead of one map entry plus one vector per symbol. Vectors are computed
// lazily by SigVec — which mutates the batch scratch and is therefore
// single-goroutine — or all at once by Prefill, after which every accessor
// is a pure read and safe for concurrent readers. Both fill through
// prefillChunk, so a vector has the same bits whichever path computed it.
type Calculator struct {
	demod     *lora.Demodulator
	antennas  [][]complex128
	start     float64 // packet start in rx samples
	cfoCycles float64
	numData   int
	dataOff   float64 // rx samples from packet start to first data symbol
	alpha     float64 // Alpha(), fixed by Reset

	// vecs[idx+preambleOffset] is the signal vector of symbol idx, nil
	// until computed; every non-nil entry aliases arena.
	vecs  [][]float64
	arena []float64

	// Batch scratch of lazy SigVec (one row) and of Prefill's first worker
	// (prefillBatchRows dechirped rows stacked for one ForwardMagBatch
	// twiddle sweep), grown by scratch on first need.
	batchBuf []complex128
	batchY   []float64

	// replay marks a calculator built from recorded vectors with no
	// samples behind it (NewReplayCalculator): reading an unrecorded
	// vector then panics instead of silently computing zeros.
	replay bool
}

// preambleOffset is the number of negative (preamble + sync) symbol indices
// addressable below data symbol 0.
const preambleOffset = lora.PreambleUpchirps + lora.SyncSymbols

// NewCalculator builds a signal-vector calculator for a packet detected at
// the (fractional) rx-sample position start with the given CFO in cycles
// per symbol, carrying numData data symbols.
func NewCalculator(d *lora.Demodulator, antennas [][]complex128, start, cfoCycles float64, numData int) *Calculator {
	c := &Calculator{}
	c.Reset(d, antennas, start, cfoCycles, numData)
	return c
}

// Reset re-targets the calculator at a new packet, invalidating every cached
// vector while keeping the arena and batch scratch (the arena is regrown
// only when the new packet needs more slots than any before). It is what
// lets a CalcPool recycle calculators across decode passes without
// re-paying the arena allocation per packet.
func (c *Calculator) Reset(d *lora.Demodulator, antennas [][]complex128, start, cfoCycles float64, numData int) {
	p := d.Params()
	n := p.N()
	slots := numData + preambleOffset
	c.demod = d
	c.antennas = antennas
	c.start = start
	c.cfoCycles = cfoCycles
	c.numData = numData
	c.dataOff = (lora.PreambleUpchirps + lora.SyncSymbols + float64(lora.DownchirpQuarters)/4) *
		float64(p.SymbolSamples())
	c.alpha = math.Mod(c.SymbolStart(0)/float64(p.OSF)-cfoCycles, float64(n))
	if c.alpha < 0 {
		c.alpha += float64(n)
	}
	if cap(c.vecs) < slots {
		c.vecs = make([][]float64, slots)
	} else {
		c.vecs = c.vecs[:slots]
		for i := range c.vecs {
			c.vecs[i] = nil
		}
	}
	if cap(c.arena) < slots*n {
		c.arena = make([]float64, slots*n)
	} else {
		c.arena = c.arena[:slots*n]
	}
}

// NumData returns the number of data symbols covered.
func (c *Calculator) NumData() int { return c.numData }

// Start returns the packet start in rx samples.
func (c *Calculator) Start() float64 { return c.start }

// CFOCycles returns the packet CFO estimate in cycles per symbol.
func (c *Calculator) CFOCycles() float64 { return c.cfoCycles }

// SymbolStart returns the rx-sample position of data symbol idx (negative
// idx addresses preamble symbols).
func (c *Calculator) SymbolStart(idx int) float64 {
	return c.start + c.dataOff + float64(idx*c.demod.Params().SymbolSamples())
}

// Alpha returns the packet's α: the symbol-boundary offset in chips
// combined with the CFO in cycles per symbol (paper §5.3.1). With this
// implementation's sign conventions a peak observed at bin b in packet k's
// signal vectors appears in packet i's vectors at bin
// mod(b + αᵢ - αₖ, N): a window that starts later sees the chirp's peak at
// a higher bin, and a packet's own CFO correction shifts foreign peaks the
// opposite way. α is reported modulo N. It depends only on what Reset
// sets, so Reset computes it once; Thrive reads it in its inner loops.
func (c *Calculator) Alpha() float64 { return c.alpha }

// InRange reports whether data symbol idx exists (preamble indices are
// valid down to -PreambleUpchirps).
func (c *Calculator) InRange(idx int) bool {
	return idx >= -preambleOffset && idx < c.numData
}

// symStart returns the rx-sample position of symbol idx, skipping the 2.25
// downchirps for preamble indices: idx -1 is the second sync symbol, and so
// on backwards.
func (c *Calculator) symStart(idx int) float64 {
	if idx >= 0 {
		return c.SymbolStart(idx)
	}
	p := c.demod.Params()
	return c.start + float64((preambleOffset+idx)*p.SymbolSamples())
}

// scratch returns the batch scratch sized for rows symbols, growing it on
// first need, so a calculator read only lazily (a known packet in the
// second pass) never holds more than one row.
func (c *Calculator) scratch(rows int) ([]complex128, []float64) {
	m := rows * c.demod.Params().N()
	if cap(c.batchBuf) < m {
		c.batchBuf = make([]complex128, m)
		c.batchY = make([]float64, m)
	}
	return c.batchBuf[:m], c.batchY[:m]
}

// slot returns the arena-backed storage of symbol idx.
func (c *Calculator) slot(idx int) []float64 {
	n := c.demod.Params().N()
	s := idx + preambleOffset
	return c.arena[s*n : (s+1)*n : (s+1)*n]
}

// SigVec returns the cached signal vector of data symbol idx, computing it
// on first use as a one-symbol prefillChunk. Lazy computation mutates the
// calculator's batch scratch: callers that read concurrently must Prefill
// first (or PrefillPreamble for preamble-only readers), after which cached
// reads are pure.
func (c *Calculator) SigVec(idx int) []float64 {
	if y := c.vecs[idx+preambleOffset]; y != nil {
		return y
	}
	if c.replay {
		panic("peaks: symbol " + strconv.Itoa(idx) + " was not recorded; replay calculators cannot compute vectors")
	}
	xb, yb := c.scratch(1)
	c.prefillChunk([]int{idx}, xb, yb)
	return c.vecs[idx+preambleOffset]
}

// prefillBatchRows is the number of symbols whose FFTs share one batched
// twiddle sweep during prefill (the same batch depth the preamble scan uses).
const prefillBatchRows = 8

// Prefill computes every signal vector (preamble and data) that is not yet
// cached, fanning out across workers (parallel.Workers semantics; <= 1 runs
// inline). Symbols are processed in batches of prefillBatchRows whose FFTs
// run as one dsp.ForwardMagBatch twiddle sweep; a transform's result does
// not depend on the rows stacked with it, so each vector is bit-identical
// to the lazy SigVec path. Each worker gets its own stacked scratch, so
// prefilled calculators are safe for any number of concurrent SigVec/ValueAt
// readers afterwards.
func (c *Calculator) Prefill(workers int) {
	var missing []int
	for s, y := range c.vecs {
		if y == nil {
			missing = append(missing, s-preambleOffset)
		}
	}
	if len(missing) == 0 {
		return
	}
	n := c.demod.Params().N()
	batches := (len(missing) + prefillBatchRows - 1) / prefillBatchRows
	workers = parallel.Workers(workers)
	if workers > batches {
		workers = batches
	}
	type ws struct {
		xb []complex128
		yb []float64
	}
	scratches := make([]ws, workers)
	scratches[0].xb, scratches[0].yb = c.scratch(prefillBatchRows)
	for w := 1; w < workers; w++ {
		scratches[w] = ws{xb: make([]complex128, prefillBatchRows*n), yb: make([]float64, prefillBatchRows*n)}
	}
	parallel.ForEach(workers, batches, func(w, b int) {
		chunk := missing[b*prefillBatchRows : min((b+1)*prefillBatchRows, len(missing))]
		c.prefillChunk(chunk, scratches[w].xb, scratches[w].yb)
	})
}

// prefillChunk fills the arena slots of the given symbol indices, at most
// prefillBatchRows of them: per antenna, every symbol is dechirped into its
// stacked row and the whole stack runs through one batched magnitude FFT,
// whose rows are added into the slots in antenna order.
func (c *Calculator) prefillChunk(idxs []int, xb []complex128, yb []float64) {
	n := c.demod.Params().N()
	rows := len(idxs)
	for _, idx := range idxs {
		y := c.slot(idx)
		for i := range y {
			y[i] = 0
		}
	}
	for _, ant := range c.antennas {
		for r, idx := range idxs {
			c.demod.DechirpInto(xb[r*n:(r+1)*n], ant, c.symStart(idx), c.cfoCycles, idx)
		}
		c.demod.ForwardMagBatch(yb[:rows*n], xb[:rows*n], rows)
		for r, idx := range idxs {
			y := c.slot(idx)
			row := yb[r*n : (r+1)*n]
			for i := range y {
				y[i] += row[i]
			}
		}
	}
	for _, idx := range idxs {
		c.vecs[idx+preambleOffset] = c.slot(idx)
	}
}

// PrefillPreamble computes only the preamble and sync signal vectors — the
// slice the history bootstrap and SNR estimate read. Known packets in the
// second decoding pass need nothing else, so skipping the data symbols
// avoids recomputing vectors whose peaks are masked, not read.
func (c *Calculator) PrefillPreamble() {
	for idx := -preambleOffset; idx < 0; idx++ {
		c.SigVec(idx)
	}
}

// ValueAt returns the signal vector value of symbol idx at (rounded,
// wrapped) bin position pos; used when a sibling is too weak to register as
// a peak (paper §5.3.3).
func (c *Calculator) ValueAt(idx int, pos float64) float64 {
	y := c.SigVec(idx)
	return y[wrapBin(pos, len(y))]
}

// wrapBin rounds a real bin position to the nearest integer bin modulo n.
func wrapBin(pos float64, n int) int {
	b := int(math.Floor(pos+0.5)) % n
	if b < 0 {
		b += n
	}
	return b
}

// PreamblePeakHeights returns the peak heights of the preamble upchirps,
// which bootstrap the history fit (paper §5.2). The peak is read at the
// expected bin (the maximum of the vector, since the preamble is clean for
// the packet's own alignment).
func (c *Calculator) PreamblePeakHeights() []float64 {
	hs := make([]float64, 0, lora.PreambleUpchirps)
	for k := 0; k < lora.PreambleUpchirps; k++ {
		idx := k - preambleOffset
		y := c.SigVec(idx)
		m := y[HighestBin(y)]
		if !(m > 0) {
			m = 0 // a vector with no positive bin, NaN ones included
		}
		hs = append(hs, m)
	}
	return hs
}

// MaskPeak subtracts a decoded packet's known peak from a signal vector by
// zeroing the bins within ±1 of pos. Used in the second decoding pass
// (paper §4) and for preamble masking.
func MaskPeak(y []float64, pos float64) {
	n := len(y)
	b := wrapBin(pos, n)
	for _, d := range [3]int{-1, 0, 1} {
		y[(b+d+n)%n] = 0
	}
}
