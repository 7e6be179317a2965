// Package par provides the shared-memory parallelism primitives that play
// the role OpenMP plays in the paper: a chunked parallel-for over index
// ranges and a double-buffered load/compute pipeline used to overlap loading π
// with the update_phi computation.
package par

import (
	"runtime"
	"sync"
)

// Workers resolves the effective worker count for a range of n items:
// workers <= 0 means GOMAXPROCS, and the count never exceeds n. Callers that
// pre-size per-worker scratch (one buffer per ForWorkers index) use this to
// agree with For's split.
func Workers(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ForWorkers splits [0, n) into exactly `workers` contiguous chunks whose
// sizes differ by at most one and runs body(w, lo, hi) with w the worker
// index in [0, workers). workers <= 1 (or n <= 1) degrades to a single
// inline body(0, 0, n) call, so the sequential and parallel engines share
// one code path and the single-thread path spawns no goroutines.
//
// The worker index is what lets callers own per-worker scratch buffers
// (sized with Workers) instead of allocating inside body — the inner-loop
// pooling contract of the φ kernels.
func ForWorkers(n, workers int, body func(w, lo, hi int)) {
	workers = Workers(n, workers)
	if workers == 0 {
		return
	}
	if workers == 1 {
		body(0, 0, n)
		return
	}
	// Balanced split: the first n%workers chunks get one extra item, so
	// chunk sizes differ by ≤ 1 and exactly `workers` goroutines launch.
	// (The previous ceil-divide split could launch fewer goroutines than
	// workers and strand an undersized tail chunk on one of them.)
	base, rem := n/workers, n%workers
	var wg sync.WaitGroup
	wg.Add(workers)
	lo := 0
	for w := 0; w < workers; w++ {
		size := base
		if w < rem {
			size++
		}
		hi := lo + size
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
}

// For splits [0, n) into contiguous chunks and runs body(lo, hi) on up to
// `workers` goroutines; see ForWorkers for the split guarantees.
func For(n, workers int, body func(lo, hi int)) {
	ForWorkers(n, workers, func(_, lo, hi int) { body(lo, hi) })
}

// ForEach runs body(i) for every i in [0, n) with the same chunking as For.
func ForEach(n, workers int, body func(i int)) {
	For(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ChunkedReduce computes a sum over [0, n) with a FIXED chunk size, in
// parallel, then folds the per-chunk partials in chunk-index order. Because
// the grouping of floating-point additions depends only on chunkSize — never
// on the worker count or the scheduling — the result is bit-identical across
// thread counts, and across the sequential and distributed engines as long
// as rank boundaries fall on chunk boundaries. That property is what lets
// the equivalence tests demand exact agreement.
func ChunkedReduce(n, chunkSize, workers int, body func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	if chunkSize <= 0 {
		chunkSize = 64
	}
	nChunks := (n + chunkSize - 1) / chunkSize
	partials := make([]float64, nChunks)
	ForEach(nChunks, workers, func(c int) {
		lo := c * chunkSize
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		partials[c] = body(lo, hi)
	})
	var total float64
	for _, p := range partials {
		total += p
	}
	return total
}

// ChunkedReduceVec is ChunkedReduce for vector-valued partials: body fills
// its per-chunk accumulator acc (pre-zeroed, length dim); the partials are
// folded element-wise in chunk order into a fresh result slice.
func ChunkedReduceVec(n, chunkSize, workers, dim int, body func(lo, hi int, acc []float64)) []float64 {
	out := make([]float64, dim)
	if n <= 0 {
		return out
	}
	if chunkSize <= 0 {
		chunkSize = 64
	}
	nChunks := (n + chunkSize - 1) / chunkSize
	partials := make([][]float64, nChunks)
	ForEach(nChunks, workers, func(c int) {
		lo := c * chunkSize
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		acc := make([]float64, dim)
		body(lo, hi, acc)
		partials[c] = acc
	})
	for _, p := range partials {
		for i, v := range p {
			out[i] += v
		}
	}
	return out
}

// PipelineDepth runs a two-stage producer/consumer pipeline over nChunks
// chunks with two buffer slots: the paper's Section III-D double buffering,
// where load(c+1) fetches the next chunk's π rows while compute(c) runs
// update_phi on the current one. The loader may run at most one chunk ahead
// of the consumer.
//
// load and compute receive the chunk index and a buffer slot in {0, 1}; the
// caller owns two sets of buffers and indexes them by slot. Chunks are
// computed strictly in order, on the caller's goroutine.
//
// Panic contract: a panic in either stage propagates to the caller — a
// loader panic is re-thrown from PipelineDepth on the calling goroutine, and
// a compute panic unwinds the caller directly — and in both cases the other
// stage's goroutine is released rather than left blocked on a slot that will
// never free.
//
// nChunks <= 1 degrades to the inline serial schedule: no goroutine, panics
// propagate natively.
func PipelineDepth(nChunks int, load func(chunk, slot int), compute func(chunk, slot int)) {
	if nChunks <= 0 {
		return
	}
	if nChunks == 1 {
		load(0, 0)
		compute(0, 0)
		return
	}
	const slots = 2

	// free holds slot-release tokens (the loader may claim both before the
	// consumer returns any); ready carries loaded chunk indices in order.
	// Both are buffered to the slot count so neither side ever blocks on its
	// send — the only blocking points are the loader awaiting a free slot and
	// the consumer awaiting a loaded chunk, and both of those also watch the
	// abort channels so a panic on the other side can never strand them.
	free := make(chan struct{}, slots)
	ready := make(chan int, slots)
	loadFailed := make(chan any, 1) // loader's recovered panic value
	quit := make(chan struct{})     // closed when the consumer unwinds
	for i := 0; i < slots; i++ {
		free <- struct{}{}
	}

	go func() {
		defer func() {
			if p := recover(); p != nil {
				loadFailed <- p
				close(ready)
			}
		}()
		for c := 0; c < nChunks; c++ {
			select {
			case <-free:
			case <-quit:
				return
			}
			load(c, c%slots)
			ready <- c
		}
	}()

	defer close(quit)
	for c := 0; c < nChunks; c++ {
		loaded, ok := <-ready
		if !ok {
			// The loader panicked; re-throw its panic value here so the
			// caller sees the failure on its own goroutine.
			panic(<-loadFailed)
		}
		if loaded != c {
			panic("par: pipeline chunks delivered out of order")
		}
		compute(c, c%slots)
		free <- struct{}{}
	}
}
