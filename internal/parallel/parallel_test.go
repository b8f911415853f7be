package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		st := ForEach(workers, n, func(_, i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
		want := workers
		if want > n {
			want = n
		}
		if st.Workers != want {
			t.Fatalf("workers=%d: Stats.Workers = %d, want %d", workers, st.Workers, want)
		}
	}
}

func TestForEachChunksCoversRangeExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 16, 1000} {
			counts := make([]atomic.Int32, n)
			var calls atomic.Int32
			st := ForEachChunks(workers, n, func(w, lo, hi int) {
				calls.Add(1)
				if lo >= hi {
					t.Errorf("workers=%d n=%d: empty range [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
			want := workers
			if want > n {
				want = n
			}
			if n == 0 {
				if calls.Load() != 0 {
					t.Fatalf("n=0: fn called %d times", calls.Load())
				}
				continue
			}
			if int(calls.Load()) != want {
				t.Fatalf("workers=%d n=%d: fn called %d times, want one per worker (%d)",
					workers, n, calls.Load(), want)
			}
			if st.Workers != want {
				t.Fatalf("workers=%d n=%d: Stats.Workers = %d, want %d", workers, n, st.Workers, want)
			}
		}
	}
}

func TestForEachChunksBalanced(t *testing.T) {
	// 10 items over 4 workers: range sizes must differ by at most one.
	sizes := make([]int, 4)
	ForEachChunks(4, 10, func(w, lo, hi int) { sizes[w] = hi - lo })
	minS, maxS := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if maxS-minS > 1 {
		t.Fatalf("unbalanced chunks: %v", sizes)
	}
}

func TestForEachChunksSerialZeroAllocs(t *testing.T) {
	sink := 0
	fn := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sink += i
		}
	}
	if a := testing.AllocsPerRun(100, func() { ForEachChunks(1, 64, fn) }); a != 0 {
		t.Fatalf("serial ForEachChunks allocates %v/op", a)
	}
}

func TestForEachWorkerIDsBounded(t *testing.T) {
	const workers, n = 4, 200
	var bad atomic.Int32
	ForEach(workers, n, func(w, _ int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker id out of [0, workers)")
	}
}

func TestForEachClampsToN(t *testing.T) {
	st := ForEach(16, 3, func(w, _ int) {
		if w > 2 {
			t.Errorf("worker id %d with only 3 items", w)
		}
	})
	if st.Workers > 3 {
		t.Fatalf("Stats.Workers = %d, want <= 3", st.Workers)
	}
}

func TestForEachDeterministicResults(t *testing.T) {
	const n = 512
	ref := make([]int, n)
	ForEach(1, n, func(_, i int) { ref[i] = i * i })
	for _, workers := range []int{2, 5, 8} {
		got := make([]int, n)
		ForEach(workers, n, func(_, i int) { got[i] = i * i })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	ForEach(4, 0, func(_, _ int) { called = true })
	if called {
		t.Fatal("fn called with n=0")
	}
}

func TestStatsPermille(t *testing.T) {
	s := Stats{Wall: 100, Busy: 350, Workers: 4}
	if got := s.SpeedupPermille(); got != 3500 {
		t.Fatalf("SpeedupPermille = %d", got)
	}
	if got := s.UtilizationPermille(); got != 875 {
		t.Fatalf("UtilizationPermille = %d", got)
	}
	var zero Stats
	if zero.SpeedupPermille() != 1000 || zero.UtilizationPermille() != 1000 {
		t.Fatal("zero Stats should report neutral 1000 permille")
	}
}

// TestForEachChunksOrderedPrefixOrder: done is called exactly once per
// chunk, in ascending order, and only after fn completed that chunk —
// at every worker width, including partial final chunks.
func TestForEachChunksOrderedPrefixOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 7, 64, 101} {
			for _, chunk := range []int{1, 3, 16, 1000} {
				var mu sync.Mutex
				computed := make(map[int]bool)
				var doneOrder []int
				ForEachChunksOrdered(workers, n, chunk, func(_, lo, hi int) {
					if hi <= lo || hi > n {
						t.Fatalf("fn range [%d,%d) out of bounds n=%d", lo, hi, n)
					}
					mu.Lock()
					for i := lo; i < hi; i++ {
						computed[i] = true
					}
					mu.Unlock()
				}, func(lo, hi int) {
					// fn workers keep writing computed while done runs.
					mu.Lock()
					for i := lo; i < hi; i++ {
						if !computed[i] {
							t.Errorf("done([%d,%d)) before fn computed %d", lo, hi, i)
						}
					}
					mu.Unlock()
					doneOrder = append(doneOrder, lo)
				})
				next := 0
				for _, lo := range doneOrder {
					if lo != next {
						t.Fatalf("workers=%d n=%d chunk=%d: done order %v not the ascending chunk sequence", workers, n, chunk, doneOrder)
					}
					next = lo + chunk
					if next > n {
						next = n
					}
				}
				if next != n {
					t.Fatalf("workers=%d n=%d chunk=%d: done covered [0,%d), want [0,%d)", workers, n, chunk, next, n)
				}
			}
		}
	}
}

// TestForEachChunksOrderedPipelines: done hands prefixes to a consumer
// goroutine through a bounded channel while later chunks are still being
// computed — the netserver's verify→commit shape. The consumer must see
// every index exactly once, in order.
func TestForEachChunksOrderedPipelines(t *testing.T) {
	const n = 500
	q := make(chan int, 4) // deliberately tiny: done blocks, consumer drains
	var got []int
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for i := range q {
			got = append(got, i)
		}
	}()
	ForEachChunksOrdered(4, n, 7, func(_, lo, hi int) {}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			q <- i
		}
	})
	close(q)
	<-consumerDone
	if len(got) != n {
		t.Fatalf("consumer saw %d indexes, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("consumer order broke at position %d: got %d", i, v)
		}
	}
}
