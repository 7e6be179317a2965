package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			hits := make([]int32, n)
			For(n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForEach(t *testing.T) {
	var sum int64
	ForEach(100, 4, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

func TestForActuallyParallel(t *testing.T) {
	var mu sync.Mutex
	inFlight, peak := 0, 0
	For(8, 8, func(lo, hi int) {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	if peak < 2 {
		t.Fatalf("peak concurrency = %d, want >= 2", peak)
	}
}

func TestPipelineOrderingAndCoverage(t *testing.T) {
	const chunks = 10
	var mu sync.Mutex
	loaded := map[int]int{} // chunk -> slot
	computed := []int{}     // order of computed chunks
	PipelineDepth(chunks, func(c, slot int) {
		mu.Lock()
		loaded[c] = slot
		mu.Unlock()
	}, func(c, slot int) {
		mu.Lock()
		if loaded[c] != slot {
			t.Errorf("chunk %d computed from slot %d, loaded into %d", c, slot, loaded[c])
		}
		computed = append(computed, c)
		mu.Unlock()
	})
	if len(computed) != chunks {
		t.Fatalf("computed %d chunks, want %d", len(computed), chunks)
	}
	for i, c := range computed {
		if c != i {
			t.Fatalf("compute order %v not sequential", computed)
		}
	}
}

func TestPipelineOverlaps(t *testing.T) {
	// With double buffering, total time should approach max(load, compute)
	// per chunk rather than their sum. Use generous margins so the test is
	// robust on loaded CI machines.
	const chunks = 8
	const stage = 10 * time.Millisecond
	work := func(c, slot int) { time.Sleep(stage) }

	start := time.Now()
	for c := 0; c < 2*chunks; c++ { // load and compute of every chunk, one after another
		work(c, 0)
	}
	serial := time.Since(start)

	start = time.Now()
	PipelineDepth(chunks, work, work)
	pipelined := time.Since(start)

	if pipelined >= serial*3/4 {
		t.Fatalf("pipelining gave no speedup: serial %v, pipelined %v", serial, pipelined)
	}
}

func TestPipelineZeroChunks(t *testing.T) {
	called := false
	PipelineDepth(0, func(c, s int) { called = true }, func(c, s int) { called = true })
	if called {
		t.Fatal("PipelineDepth(0) invoked a stage")
	}
}

func TestPipelineSlotAlternation(t *testing.T) {
	var slots []int
	PipelineDepth(6, func(c, slot int) {}, func(c, slot int) { slots = append(slots, slot) })
	for i, s := range slots {
		if s != i&1 {
			t.Fatalf("chunk %d used slot %d, want %d", i, s, i&1)
		}
	}
}

func TestChunkedReduceMatchesSequential(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i%17) * 1.25
	}
	var want float64
	for _, v := range vals {
		want += v
	}
	for _, workers := range []int{1, 3, 8} {
		got := ChunkedReduce(len(vals), 64, workers, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		})
		if got != want {
			t.Fatalf("workers=%d: %v != %v", workers, got, want)
		}
	}
}

func TestChunkedReduceBitExactAcrossWorkers(t *testing.T) {
	// Values chosen so the sum is order-sensitive in float64; the fixed
	// chunking must make all worker counts agree bitwise.
	vals := make([]float64, 777)
	for i := range vals {
		vals[i] = 1e16 / float64(i+1)
		if i%2 == 0 {
			vals[i] = -vals[i] * 0.99999
		}
	}
	body := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	ref := ChunkedReduce(len(vals), 64, 1, body)
	for _, workers := range []int{2, 5, 16} {
		if got := ChunkedReduce(len(vals), 64, workers, body); got != ref {
			t.Fatalf("workers=%d: %v != %v (not bit-exact)", workers, got, ref)
		}
	}
}

func TestChunkedReduceVec(t *testing.T) {
	const n, dim = 300, 4
	want := make([]float64, dim)
	for i := 0; i < n; i++ {
		for d := 0; d < dim; d++ {
			want[d] += float64(i*dim + d)
		}
	}
	got := ChunkedReduceVec(n, 64, 4, dim, func(lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			for d := 0; d < dim; d++ {
				acc[d] += float64(i*dim + d)
			}
		}
	})
	for d := 0; d < dim; d++ {
		if got[d] != want[d] {
			t.Fatalf("dim %d: %v != %v", d, got[d], want[d])
		}
	}
	// Empty range returns zeros.
	zero := ChunkedReduceVec(0, 64, 2, dim, func(lo, hi int, acc []float64) {})
	for _, v := range zero {
		if v != 0 {
			t.Fatal("empty reduce not zero")
		}
	}
}

func TestChunkedReduceDefaultChunk(t *testing.T) {
	// chunkSize <= 0 falls back to a default rather than panicking.
	got := ChunkedReduce(100, 0, 2, func(lo, hi int) float64 { return float64(hi - lo) })
	if got != 100 {
		t.Fatalf("got %v, want 100", got)
	}
}

func TestForWorkersBalancedChunks(t *testing.T) {
	// Table over (n, workers) edge cases: chunk sizes must differ by at most
	// one, cover [0, n) contiguously, and use exactly Workers(n, workers)
	// distinct worker ids — including workers > n and n == 0.
	cases := []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {5, 2}, {5, 5}, {5, 8},
		{7, 3}, {100, 7}, {1000, 64}, {63, 64}, {65, 64}, {10, 0},
	}
	for _, tc := range cases {
		want := Workers(tc.n, tc.workers)
		var mu sync.Mutex
		type chunk struct{ w, lo, hi int }
		var chunks []chunk
		ForWorkers(tc.n, tc.workers, func(w, lo, hi int) {
			mu.Lock()
			chunks = append(chunks, chunk{w, lo, hi})
			mu.Unlock()
		})
		if tc.n == 0 {
			if len(chunks) != 0 {
				t.Fatalf("n=0 workers=%d: body invoked %d times", tc.workers, len(chunks))
			}
			continue
		}
		if len(chunks) != want {
			t.Fatalf("n=%d workers=%d: %d chunks, want %d", tc.n, tc.workers, len(chunks), want)
		}
		covered := make([]int, tc.n)
		seenW := make([]bool, want)
		minSz, maxSz := tc.n, 0
		for _, c := range chunks {
			if c.w < 0 || c.w >= want || seenW[c.w] {
				t.Fatalf("n=%d workers=%d: bad or repeated worker id %d", tc.n, tc.workers, c.w)
			}
			seenW[c.w] = true
			sz := c.hi - c.lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			for i := c.lo; i < c.hi; i++ {
				covered[i]++
			}
		}
		for i, h := range covered {
			if h != 1 {
				t.Fatalf("n=%d workers=%d: index %d covered %d times", tc.n, tc.workers, i, h)
			}
		}
		if maxSz-minSz > 1 {
			t.Fatalf("n=%d workers=%d: chunk sizes range [%d, %d], want spread <= 1",
				tc.n, tc.workers, minSz, maxSz)
		}
	}
}

func TestWorkersResolver(t *testing.T) {
	if got := Workers(0, 4); got != 0 {
		t.Fatalf("Workers(0, 4) = %d, want 0", got)
	}
	if got := Workers(3, 8); got != 3 {
		t.Fatalf("Workers(3, 8) = %d, want 3", got)
	}
	if got := Workers(100, 4); got != 4 {
		t.Fatalf("Workers(100, 4) = %d, want 4", got)
	}
	if got := Workers(100, 0); got < 1 {
		t.Fatalf("Workers(100, 0) = %d, want >= 1", got)
	}
}

func TestPipelineSingleChunkInline(t *testing.T) {
	// nChunks == 1 must degrade to the serial schedule: load then compute,
	// both on the calling goroutine, slot 0.
	var order []string
	PipelineDepth(1, func(c, slot int) {
		if c != 0 || slot != 0 {
			t.Fatalf("load got (c=%d, slot=%d), want (0, 0)", c, slot)
		}
		order = append(order, "load")
	}, func(c, slot int) {
		if c != 0 || slot != 0 {
			t.Fatalf("compute got (c=%d, slot=%d), want (0, 0)", c, slot)
		}
		order = append(order, "compute")
	})
	if len(order) != 2 || order[0] != "load" || order[1] != "compute" {
		t.Fatalf("order = %v, want [load compute]", order)
	}
}

// expectPanic runs f and fails unless it panics with want.
func expectPanic(t *testing.T, want any, f func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case got := <-done:
		if got != want {
			t.Fatalf("panic value = %v, want %v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: panic did not propagate within 5s")
	}
}

func TestPipelineLoadPanicPropagates(t *testing.T) {
	// A panic in the load stage must reach the caller, not deadlock the
	// consumer waiting on a chunk that will never arrive.
	expectPanic(t, "load boom", func() {
		PipelineDepth(8, func(c, slot int) {
			if c == 3 {
				panic("load boom")
			}
		}, func(c, slot int) {})
	})
}

func TestPipelineComputePanicPropagates(t *testing.T) {
	// A panic in the compute stage must unwind the caller and release the
	// loader (which may be blocked waiting for a free slot).
	expectPanic(t, "compute boom", func() {
		PipelineDepth(64, func(c, slot int) {}, func(c, slot int) {
			if c == 2 {
				panic("compute boom")
			}
		})
	})
}

func TestPipelineDepthLoaderRunsAhead(t *testing.T) {
	// With two slots, the loader must be able to finish two chunks before
	// the first compute completes.
	const depth, chunks = 2, 8
	loads := make(chan int, chunks)
	computeGate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		PipelineDepth(chunks, func(c, slot int) {
			loads <- c
		}, func(c, slot int) {
			if c == 0 {
				<-computeGate
			}
		})
	}()
	// While compute(0) is blocked, the loader should deliver depth loads.
	for i := 0; i < depth; i++ {
		select {
		case <-loads:
		case <-time.After(5 * time.Second):
			t.Fatalf("loader stalled after %d loads; want %d ahead of compute", i, depth)
		}
	}
	close(computeGate)
	<-done
}
