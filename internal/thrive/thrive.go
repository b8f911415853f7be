// Package thrive implements TnB's peak assignment (paper §5): at every
// checking point, the symbols of all collided packets that intersect it are
// each assigned one FFT peak, chosen by a matching cost that combines the
// sibling cost (Eq. 1: relative height among the copies of the same
// transmitted peak across packets' signal vectors) and the history cost
// (Eq. 2: deviation from a curve fit of the node's past peak heights).
//
// The package also provides the AlignTrack* assignment policy (paper §8.2),
// which assigns a peak to a symbol when the peak is highest in that
// symbol's own signal vector — the comparison baseline.
package thrive

import (
	"math"

	"tnb/internal/lora"
	"tnb/internal/obs"
	"tnb/internal/peaks"
	"tnb/internal/stats"
)

// Policy selects the peak-assignment algorithm.
type Policy int

const (
	// PolicyThrive uses the full matching cost (sibling + history).
	PolicyThrive Policy = iota
	// PolicySibling uses the sibling cost only (the "Sibling"
	// configuration of paper §8.4).
	PolicySibling
	// PolicyAlignTrack is the AlignTrack* baseline: a peak belongs to the
	// symbol where it is highest among its siblings.
	PolicyAlignTrack
)

// Config tunes the engine. The zero value selects the paper's settings via
// NewEngine.
type Config struct {
	Policy Policy
	// Omega is the history-cost weight ω (paper §5.3.3; 0.1).
	Omega float64
}

const (
	// smoothWindow is the moving-average window of the history curve fit.
	smoothWindow = 7
	// historySpread is the multiple of the deviation D used for the upper
	// and lower estimates (paper §5.3.3: U = A + 4D, L = A - 4D).
	historySpread = 4
)

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config {
	return Config{Policy: PolicyThrive, Omega: 0.1}
}

// PacketState tracks one detected packet through peak assignment.
type PacketState struct {
	ID   int
	Calc *peaks.Calculator

	// Known marks a packet whose peaks are known: decoded correctly in a
	// previous pass. Its peaks are masked rather than assigned.
	Known bool
	// KnownShifts holds the true data-symbol shifts of a Known packet.
	KnownShifts []int
	// PriorHeights, when non-nil, holds the peak heights observed in a
	// previous pass; the history fit then runs over the full packet
	// (paper §5.3.3, second decoding attempt).
	PriorHeights []float64

	// Assigned receives the assigned peak bin per data symbol (-1 until
	// assigned).
	Assigned []int
	// Heights receives the assigned peak heights, feeding the history.
	Heights []float64
	// Alternates receives the runner-up peak bin per symbol (-1 when the
	// symbol had no second candidate); list decoding uses it to retry
	// failed packets.
	Alternates []int

	// Trace, when non-nil, records each symbol's assignment decision
	// (winning peak, runner-up, cost split, margin). Nil costs nothing.
	Trace *obs.PacketTrace

	historySeed []float64 // preamble peak heights (bootstrap)
}

// Assignment is one packet's output of the peak-assignment stage: the
// chosen peak bin, its height, and the runner-up bin per data symbol. It is
// the typed boundary the stage graph records and diffs; the slices alias
// the PacketState's, so it is a view, not a copy.
type Assignment struct {
	Assigned   []int
	Heights    []float64
	Alternates []int
}

// Assignment returns the packet's peak-assignment boundary view.
func (ps *PacketState) Assignment() Assignment {
	return Assignment{Assigned: ps.Assigned, Heights: ps.Heights, Alternates: ps.Alternates}
}

// NewPacketState wraps a calculator for assignment.
func NewPacketState(id int, calc *peaks.Calculator) *PacketState {
	n := calc.NumData()
	ps := &PacketState{
		ID:         id,
		Calc:       calc,
		Assigned:   make([]int, n),
		Heights:    make([]float64, n),
		Alternates: make([]int, n),
	}
	for i := range ps.Assigned {
		ps.Assigned[i] = -1
		ps.Alternates[i] = -1
	}
	return ps
}

// Engine runs peak assignment over a trace. It owns per-checking-point
// scratch (a symbol pool, history buffers, and a median selector) that grows
// to the densest checking point seen and is reused, so Run performs no
// steady-state allocations; an Engine is therefore not safe for concurrent
// use, matching the serial greedy assignment it implements.
type Engine struct {
	cfg Config
	p   lora.Params

	pool []*symbol // pooled symbol slots, grow-once
	syms []*symbol // symbols of the current checking point, reused
	sel  stats.Selector
	hist []float64 // observed-heights scratch for the history fit
	fit  []float64 // moving-average scratch for the history fit
}

// NewEngine builds an engine; zero-value config fields fall back to the
// paper's defaults.
func NewEngine(p lora.Params, cfg Config) *Engine {
	def := DefaultConfig()
	if cfg.Omega == 0 {
		cfg.Omega = def.Omega
	}
	return &Engine{cfg: cfg, p: p}
}

// symbol is one data symbol intersecting the current checking point. Symbols
// live in the engine's pool: every slice field keeps its capacity across
// checking points and is re-sliced rather than reallocated.
type symbol struct {
	pkt   *PacketState
	idx   int
	start float64
	y     []float64 // masked working copy of the signal vector
	ps    []peaks.Peak
	at    []float64 // at[bin] is the height of ps's peak there, 0 for none
	costs []float64
	// sibCosts/histCosts keep the per-peak cost split for tracing; they are
	// filled only when traced is set (the packet carries a trace).
	sibCosts  []float64
	histCosts []float64
	traced    bool
	alive     bool
}

// Run assigns peaks for every unknown packet across the trace of traceLen
// samples. Packets must be sorted by start time (any order works, but
// sorted keeps the history causal).
func (e *Engine) Run(pkts []*PacketState, traceLen int) {
	sym := e.p.SymbolSamples()
	for _, ps := range pkts {
		if ps.historySeed == nil {
			ps.historySeed = ps.Calc.PreamblePeakHeights()
		}
	}
	for cp := 0; cp <= traceLen+sym; cp += sym {
		e.runCheckingPoint(pkts, float64(cp))
	}
}

// symbolAt returns the data-symbol index of the packet whose symbol
// interior contains the checking point, or -1.
func symbolAt(ps *PacketState, cp float64, symSamples int) int {
	s0 := ps.Calc.SymbolStart(0)
	idx := int(math.Ceil((cp-s0)/float64(symSamples))) - 1
	if idx < 0 || idx >= ps.Calc.NumData() {
		return -1
	}
	return idx
}

func (e *Engine) runCheckingPoint(pkts []*PacketState, cp float64) {
	symSamples := e.p.SymbolSamples()
	n := e.p.N()

	// Collect the unknown symbols intersecting this checking point into
	// pooled slots: the pool grows to the densest checking point and the
	// per-slot buffers keep their capacity, so a steady-state call copies
	// the signal vectors without allocating.
	e.syms = e.syms[:0]
	for _, ps := range pkts {
		if ps.Known {
			continue
		}
		idx := symbolAt(ps, cp, symSamples)
		if idx < 0 || ps.Assigned[idx] >= 0 {
			continue
		}
		var s *symbol
		if len(e.syms) < len(e.pool) {
			s = e.pool[len(e.syms)]
		} else {
			s = &symbol{}
			e.pool = append(e.pool, s)
		}
		s.pkt, s.idx = ps, idx
		s.start = ps.Calc.SymbolStart(idx)
		s.y = append(s.y[:0], ps.Calc.SigVec(idx)...)
		s.ps = s.ps[:0]
		s.costs = s.costs[:0]
		s.sibCosts, s.histCosts = s.sibCosts[:0], s.histCosts[:0]
		s.traced = false
		s.alive = true
		e.syms = append(e.syms, s)
	}
	syms := e.syms
	if len(syms) == 0 {
		return
	}
	m := len(syms)

	// Mask peaks that are already known: preamble symbols and decoded
	// packets (paper §5.3.4).
	for _, s := range syms {
		for _, other := range pkts {
			if other == s.pkt {
				continue
			}
			e.maskKnownInto(s, other, symSamples, n)
		}
	}

	// Locate peaks: at most 2M per symbol (paper §5.3.1). The selectivity
	// is tied to the noise floor (median of the vector) rather than the
	// peak range, so a weak node's peak survives next to a 20 dB stronger
	// collider; the 2M cap bounds the list.
	for _, s := range syms {
		s.ps = peaks.FindInto(s.ps, s.y, 6*e.sel.Median(s.y), 2*m)
		s.indexPeaks(n)
	}

	if e.cfg.Policy == PolicyAlignTrack {
		e.assignAlignTrack(syms, n)
		return
	}

	// Matching costs.
	for _, s := range syms {
		s.costs = growFloats(s.costs, len(s.ps))
		if s.pkt.Trace != nil {
			s.traced = true
			s.sibCosts = growFloats(s.sibCosts, len(s.ps))
			s.histCosts = growFloats(s.histCosts, len(s.ps))
		}
		var hist historyFit
		haveHist := false
		if e.cfg.Policy == PolicyThrive {
			hist, haveHist = e.fitHistory(s.pkt, s.idx)
		}
		for pi, pk := range s.ps {
			sc := e.siblingCost(s, pk, syms, n)
			hc := 0.0
			if haveHist {
				hc = e.historyCost(&hist, pk.Height)
			}
			if s.traced {
				s.sibCosts[pi] = sc
				s.histCosts[pi] = hc
			}
			s.costs[pi] = sc + hc
		}
	}

	// Greedy assignment (paper §5.3.4).
	for remaining := m; remaining > 0; remaining-- {
		sel := e.selectSymbol(syms)
		if sel == nil {
			break
		}
		e.assignBest(sel, syms, n)
	}
	// Any symbol left without peaks falls back to its strongest bin.
	for _, s := range syms {
		if s.alive {
			hb := peaks.HighestBin(s.y)
			e.finalize(s, hb, s.y[hb], fallbackDecision)
		}
	}
}

// fallbackDecision marks a symbol assigned without a surviving peak; the
// finalize call fills in the bin and height.
var fallbackDecision = obs.SymbolDecision{Alt: -1, Margin: -1, Fallback: true}

// maskKnownInto removes peaks of a known source (preamble of any packet, or
// all symbols of a decoded packet) from the target symbol's working vector.
func (e *Engine) maskKnownInto(target *symbol, src *PacketState, symSamples, n int) {
	// The target symbol overlaps at most two of src's (possibly preamble)
	// symbols, j0 and j0+1.
	s0 := src.Calc.SymbolStart(0)
	j0 := int(math.Floor((target.start - s0) / float64(symSamples)))
	for _, j := range [2]int{j0, j0 + 1} {
		if !src.Calc.InRange(j) {
			continue
		}
		bin, ok := knownBin(src, j)
		if !ok {
			continue
		}
		pos := modBins(float64(bin)+target.pkt.Calc.Alpha()-src.Calc.Alpha(), n)
		peaks.MaskPeak(target.y, pos)
		if j >= 0 {
			// Data-symbol masks come from decoded colliders (second-pass
			// masking); preamble masks (j < 0) are routine and not counted.
			target.pkt.Trace.OnMask(1)
		}
	}
}

// growFloats returns s resized to length n, reusing its backing array when
// the capacity suffices. The contents are unspecified; callers overwrite
// every element.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// knownBin returns the known peak bin of packet symbol j: preamble upchirps
// and sync symbols are always known; data symbols only for decoded packets.
// The 2.25 downchirps spread in up-dechirped windows and produce no peak.
func knownBin(ps *PacketState, j int) (int, bool) {
	if j < 0 {
		k := j + lora.PreambleUpchirps + lora.SyncSymbols
		switch {
		case k < 0:
			return 0, false
		case k < lora.PreambleUpchirps:
			return 0, true
		case k == lora.PreambleUpchirps:
			return lora.SyncShift1, true
		default:
			return lora.SyncShift2, true
		}
	}
	if ps.Known && j < len(ps.KnownShifts) {
		return ps.KnownShifts[j], true
	}
	// Peaks assigned in this pass but not yet CRC-verified are NOT known
	// (paper §5.3.4): masking them would let one wrong assignment cascade
	// into masking a victim packet's true peak at the next checking point.
	return 0, false
}

// indexPeaks rebuilds s.at from s.ps. A pooled symbol's at still holds the
// previous checking point's peaks, so it is cleared first.
func (s *symbol) indexPeaks(n int) {
	if len(s.at) != n {
		s.at = make([]float64, n)
	}
	clear(s.at)
	for _, pk := range s.ps {
		s.at[pk.Bin] = max(s.at[pk.Bin], pk.Height)
	}
}

// siblingHeight returns the height of the sibling of (bin in s) inside
// other symbol os: a located peak within ±1 bin of the expected position,
// or the raw signal-vector value there (paper §5.3.3). Only the bins
// ⌊pos⌋−1 … ⌊pos⌋+2 can lie within 1.5 of pos, so it reads those from the
// peak index under the same distance test as a scan of os.ps; a peak of
// height 0 or less never counts, as in the scan.
func siblingHeight(s *symbol, bin float64, os *symbol, n int) float64 {
	pos := modBins(bin+os.pkt.Calc.Alpha()-s.pkt.Calc.Alpha(), n)
	if pos < 0 {
		pos += float64(n)
	}
	best := 0.0
	b0 := int(math.Floor(pos))
	for b := b0 - 1; b <= b0+2; b++ {
		w := (b%n + n) % n
		if h := os.at[w]; h > best && circDist(float64(w), pos, n) <= 1.5 {
			best = h
		}
	}
	if best > 0 {
		return best
	}
	return os.pkt.Calc.ValueAt(os.idx, pos)
}

// siblingCost computes Eq. 1 for a peak of symbol s: its height relative to
// the tallest sibling across the signal vectors of the other packets'
// overlapping symbols, including the packet's own adjacent symbols' view.
func (e *Engine) siblingCost(s *symbol, pk peaks.Peak, syms []*symbol, n int) float64 {
	hStar := pk.Height
	for _, os := range syms {
		if os == s || os.pkt == s.pkt {
			continue
		}
		if h := siblingHeight(s, float64(pk.Bin), os, n); h > hStar {
			hStar = h
		}
		// The same transmitted peak also lands in the neighbor symbols of
		// the other packet; approximate their view with the raw vector
		// value at the expected position.
		for _, dj := range [2]int{-1, 1} {
			j := os.idx + dj
			if !os.pkt.Calc.InRange(j) {
				continue
			}
			pos := modBins(float64(pk.Bin)+os.pkt.Calc.Alpha()-s.pkt.Calc.Alpha(), n)
			if h := os.pkt.Calc.ValueAt(j, pos); h > hStar {
				hStar = h
			}
		}
	}
	if hStar <= 0 {
		return 0
	}
	r := 1 - pk.Height/hStar
	return r * r
}

type historyFit struct {
	a, d float64
}

// fitHistory estimates the expected peak height A and deviation D for the
// packet's symbol idx from the smoothed history of observed heights
// (preamble peaks plus assigned data peaks; paper §5.3.3 and Fig. 6). The
// boolean is false when the packet has no history yet. The history and fit
// live in engine scratch, valid until the next fitHistory call.
func (e *Engine) fitHistory(ps *PacketState, idx int) (historyFit, bool) {
	h := e.hist[:0]
	if ps.PriorHeights != nil {
		// Second pass: fit over the full prior observation and read the
		// fitted value at the symbol itself.
		h = append(h, ps.historySeed...)
		h = append(h, ps.PriorHeights...)
		e.hist = h
		e.fit = stats.MovingAverageInto(e.fit, h, smoothWindow)
		fit := e.fit
		at := len(ps.historySeed) + idx
		if at >= len(fit) {
			at = len(fit) - 1
		}
		return historyFit{a: fit[at], d: e.sel.MedianAbsResiduals(h, fit)}, true
	}
	h = append(h, ps.historySeed...)
	for j := 0; j < idx; j++ {
		if ps.Assigned[j] >= 0 {
			h = append(h, ps.Heights[j])
		}
	}
	e.hist = h
	if len(h) == 0 {
		return historyFit{}, false
	}
	e.fit = stats.MovingAverageInto(e.fit, h, smoothWindow)
	fit := e.fit
	return historyFit{a: fit[len(fit)-1], d: e.sel.MedianAbsResiduals(h, fit)}, true
}

// historyCost computes Eq. 2.
func (e *Engine) historyCost(f *historyFit, eta float64) float64 {
	u := f.a + historySpread*f.d
	l := math.Max(0, f.a-historySpread*f.d)
	switch {
	case eta > u:
		if eta <= 0 {
			return 0
		}
		r := 1 - u/eta
		return e.cfg.Omega * r * r
	case eta >= l:
		return 0
	default:
		if l <= 0 {
			return 0
		}
		r := 1 - eta/l
		return e.cfg.Omega * r * r
	}
}

// selectSymbol picks the next symbol per §5.3.4: the symbol owning a
// minimum-cost peak; ties break toward the symbol with the fewest
// minimum-cost peaks.
func (e *Engine) selectSymbol(syms []*symbol) *symbol {
	const eps = 1e-12
	minCost := math.Inf(1)
	for _, s := range syms {
		if !s.alive {
			continue
		}
		for pi := range s.ps {
			if s.costs[pi] < minCost {
				minCost = s.costs[pi]
			}
		}
	}
	if math.IsInf(minCost, 1) {
		return nil
	}
	var sel *symbol
	selCount := 0
	for _, s := range syms {
		if !s.alive {
			continue
		}
		count := 0
		for pi := range s.ps {
			if s.costs[pi] <= minCost+eps {
				count++
			}
		}
		if count == 0 {
			continue
		}
		if sel == nil || count < selCount {
			sel, selCount = s, count
		}
	}
	return sel
}

// assignBest assigns the minimum-cost peak of sel, records the runner-up
// as the symbol's alternate, masks the chosen peak's siblings in the
// remaining symbols, and retires sel.
func (e *Engine) assignBest(sel *symbol, syms []*symbol, n int) {
	best, bi := math.Inf(1), -1
	second, si := math.Inf(1), -1
	for pi := range sel.ps {
		switch {
		case sel.costs[pi] < best:
			second, si = best, bi
			best, bi = sel.costs[pi], pi
		case sel.costs[pi] < second:
			second, si = sel.costs[pi], pi
		}
	}
	if bi < 0 {
		hb := peaks.HighestBin(sel.y)
		e.finalize(sel, hb, sel.y[hb], fallbackDecision)
		return
	}
	d := obs.SymbolDecision{Alt: -1, Margin: -1, Cost: best}
	if sel.traced {
		d.SiblingCost = sel.sibCosts[bi]
		d.HistoryCost = sel.histCosts[bi]
	}
	if si >= 0 {
		sel.pkt.Alternates[sel.idx] = sel.ps[si].Bin
		d.Alt = sel.ps[si].Bin
		d.Margin = second - best
	}
	pk := sel.ps[bi]
	e.finalize(sel, pk.Bin, pk.Height, d)
	for _, os := range syms {
		if !os.alive || os == sel {
			continue
		}
		pos := modBins(float64(pk.Bin)+os.pkt.Calc.Alpha()-sel.pkt.Calc.Alpha(), n)
		if pos < 0 {
			pos += float64(n)
		}
		// Filter in place: each kept element lands at an index already
		// visited, so re-slicing from [:0] never clobbers a pending read.
		filtered := os.ps[:0]
		kept := os.costs[:0]
		keptSib, keptHist := os.sibCosts[:0], os.histCosts[:0]
		for pi, opk := range os.ps {
			if circDist(float64(opk.Bin), pos, n) <= 1.5 {
				os.at[opk.Bin] = 0
				continue
			}
			filtered = append(filtered, opk)
			kept = append(kept, os.costs[pi])
			if os.traced {
				keptSib = append(keptSib, os.sibCosts[pi])
				keptHist = append(keptHist, os.histCosts[pi])
			}
		}
		os.ps, os.costs = filtered, kept
		if os.traced {
			os.sibCosts, os.histCosts = keptSib, keptHist
		}
		peaks.MaskPeak(os.y, pos)
	}
}

// finalize commits the assignment and records the traced decision; d's Idx,
// Bin, and Height are filled here so callers only supply the cost fields.
func (e *Engine) finalize(s *symbol, bin int, height float64, d obs.SymbolDecision) {
	s.pkt.Assigned[s.idx] = bin
	s.pkt.Heights[s.idx] = height
	s.alive = false
	if s.pkt.Trace != nil {
		d.Idx = s.idx
		d.Bin = bin
		d.Height = height
		s.pkt.Trace.SetSymbol(d)
	}
}

// assignAlignTrack implements the AlignTrack* policy: every symbol takes
// the peak that is higher in its own signal vector than in any other
// symbol's vector. When several peaks qualify, the choice is arbitrary
// (the strongest is taken) — the failure mode paper §8.4 analyzes.
func (e *Engine) assignAlignTrack(syms []*symbol, n int) {
	for _, s := range syms {
		// Arbitrary choice among aligned peaks: the first qualifying one
		// (peaks are sorted by height, so the strongest), tracked directly
		// instead of collecting the full aligned list.
		alignedBin, alignedHeight := -1, 0.0
		for _, pk := range s.ps {
			highest := true
			for _, os := range syms {
				if os == s || os.pkt == s.pkt {
					continue
				}
				if siblingHeight(s, float64(pk.Bin), os, n) > pk.Height {
					highest = false
					break
				}
			}
			if highest {
				alignedBin, alignedHeight = pk.Bin, pk.Height
				break
			}
		}
		switch {
		case alignedBin >= 0:
			e.finalize(s, alignedBin, alignedHeight, obs.SymbolDecision{Alt: -1, Margin: -1})
		case len(s.ps) > 0:
			e.finalize(s, s.ps[0].Bin, s.ps[0].Height, obs.SymbolDecision{Alt: -1, Margin: -1})
		default:
			hb := peaks.HighestBin(s.y)
			e.finalize(s, hb, s.y[hb], fallbackDecision)
		}
	}
}

// modBins is math.Mod(x, n). Mod returns x itself when |x| < n, the usual
// case for a bin shifted by an offset difference, so the call is skipped
// there; the result is bit-identical, ±0 and NaN included.
func modBins(x float64, n int) float64 {
	if fn := float64(n); -fn < x && x < fn {
		return x
	}
	return math.Mod(x, float64(n))
}

// circDist is the distance between bins a and b on a circle of n bins.
// |Mod(x, n)| = Mod(|x|, n), and Mod is the identity below n, so it runs
// only from n up.
func circDist(a, b float64, n int) float64 {
	d := math.Abs(a - b)
	if d >= float64(n) {
		d = math.Mod(d, float64(n))
	}
	if d > float64(n)/2 {
		d = float64(n) - d
	}
	return d
}
