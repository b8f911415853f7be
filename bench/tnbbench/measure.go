package main

import (
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user + system CPU time. It counts every
// thread, so garbage collection and server goroutines are charged too.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// totalAlloc returns the cumulative bytes allocated on the heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// section measures one timed section: wall, process CPU and heap bytes
// allocated between start and stop.
type section struct {
	t0    time.Time
	cpu0  float64
	heap0 uint64

	wall, cpu float64
	alloc     uint64
}

func (s *section) start() {
	s.heap0 = totalAlloc()
	s.cpu0 = cpuSeconds()
	s.t0 = time.Now()
}

func (s *section) stop() {
	s.wall = time.Since(s.t0).Seconds()
	s.cpu = cpuSeconds() - s.cpu0
	s.alloc = totalAlloc() - s.heap0
}

// repStats is one repetition's contribution to the end-to-end metrics.
type repStats struct {
	frames   int     // input frames the system handled
	cpu      float64 // process CPU seconds spent on them
	alloc    uint64  // heap bytes allocated while handling them
	p50, p95 float64 // per-frame latency quantiles, seconds
}

func newRepStats(frames int, cpu float64, alloc uint64, lat []float64) repStats {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	return repStats{frames: frames, cpu: cpu, alloc: alloc, p50: quantile(s, 0.50), p95: quantile(s, 0.95)}
}

// endToEndMetrics turns the run's set-up time, packet reception ratio and
// repetitions into the end-to-end metrics. Each timing is the median over
// repetitions of that repetition's value, or, with best, the best
// repetition's: the min-of-N estimator for repetitions of identical input
// on a host shared with other load, where slowdowns only ever add time.
// Allocation does not depend on the host and always takes the median.
func endToEndMetrics(setup, prr float64, rs []repStats, best bool) map[string]float64 {
	var thr, p50, p95, alloc []float64
	for _, r := range rs {
		thr = append(thr, float64(r.frames)/r.cpu)
		p50 = append(p50, 1e3*r.p50)
		p95 = append(p95, 1e3*r.p95)
		alloc = append(alloc, float64(r.alloc)/1024/float64(r.frames))
	}
	lowest, highest := median, median
	if best {
		lowest, highest = slices.Min[[]float64], slices.Max[[]float64]
	}
	return map[string]float64{
		"setup_s":            setup,
		"prr":                prr,
		"frames_per_cpu_s":   highest(thr),
		"latency_p50_ms":     lowest(p50),
		"latency_p95_ms":     lowest(p95),
		"alloc_kb_per_frame": median(alloc),
	}
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the q-quantile of v; v is not modified.
func percentile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, q)
}

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks; 0 for no values.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
