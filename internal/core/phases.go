package core

import (
	"math"
	"sync"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sampling"
	"repro/internal/store"
)

// This file is the shared algorithm core: each phase of the paper's
// iteration (Table III) implemented once against the store.PiStore
// abstraction. The local sampler wires these to a store.LocalStore, the
// distributed engine to a store.DKVStore — so a Ranks=1 distributed run is
// the single-process sampler by construction, and scaling work (caching,
// batching, alternative backends) lands in one place.

// DrawMinibatch samples iteration t's edge minibatch from the deterministic
// per-iteration RNG stream (the draw_minibatch phase; master-only in the
// distributed engine).
func DrawMinibatch(cfg *Config, edges sampling.EdgeStrategy, t int, dst *sampling.Batch) {
	edges.Sample(mathx.NewStream(cfg.Seed, StreamMinibatch(t)), dst)
}

// PhiStage is the dominant update_phi phase: for each minibatch vertex,
// sample its neighbor set (on Threads workers), load the π rows through the
// store, and compute the staged φ row. Which schedule runs is decided per
// call by plan(): without Pipelined the stage takes the fused serial path
// (one batched read, then one compute sweep), while with it the minibatch is
// cut into chunks and double-buffered (par.PipelineDepth): a loader
// goroutine reads the next chunk's π rows while the current chunk computes.
// That loader is the only overlap of load and compute; every store read is
// synchronous. Draws, loads and computes are reported to Obs as the
// update_phi.sample_neighbors / update_phi.load_pi / update_phi.compute
// sub-stage intervals.
//
// A PhiStage owns persistent staging buffers and per-worker scratch, so the
// steady-state iteration allocates nothing; construct one per engine and
// reuse it across iterations.
type PhiStage struct {
	Cfg     *Config
	Store   store.PiStore
	Neigh   sampling.NeighborStrategy
	Threads int
	// Pipelined selects the overlapped schedule. Set it only when reads
	// leave the process (the distributed engine at Ranks ≥ 2): over local
	// memory there is nothing to overlap, and the handoff only costs.
	Pipelined bool
	// Obs receives the sample_neighbors/load_pi/compute sub-stage
	// intervals, so the phase table and the per-iteration events carry the
	// full Table III breakdown. With pipelining on, a chunk's draw and load
	// report concurrently with the previous chunk's compute. Nil reports
	// nothing.
	Obs *obs.Observer

	// bufs holds one phiChunk per pipeline slot and scratch one PhiScratch
	// per worker index; both persist across iterations.
	bufs    [2]phiChunk
	scratch []*PhiScratch
}

// minPhiChunk floors the pipeline chunk size: below ~64 vertices the
// per-chunk goroutine/channel handoff is comparable to the compute it
// schedules and the pipeline loses even against remote stores.
const minPhiChunk = 64

// plan resolves the schedule for a minibatch of n vertices: whether to
// pipeline, and the chunk size. Pipelining is demoted to serial when the
// minibatch yields fewer than two chunks. The chunk size aims for 8 chunks —
// four fills of the two slots, enough in-flight fetches to hide bursty
// latency, few enough that handoff overhead stays negligible — floored at
// minPhiChunk. The serial path is a single chunk: one batched read, then the
// fused compute sweep.
func (p *PhiStage) plan(n int) (pipelined bool, chunkN int) {
	if !p.Pipelined {
		return false, n
	}
	chunkN = max((n+7)/8, minPhiChunk)
	if chunkN >= n {
		return false, n
	}
	return true, chunkN
}

// phiChunk is one slot's staging buffers, reused across chunks and
// iterations. rngs holds RNG values (not pointers) reseeded in place per
// vertex, so steady-state loads allocate nothing.
type phiChunk struct {
	lo, hi  int
	rngs    []mathx.RNG
	samples []sampling.NeighborSample
	keys    []int32
	nodeOff []int // index into keys/rows where vertex i's rows begin
	rows    store.Rows
}

// Run computes newPhi (len(nodes)·K, row-major, caller-sized) for iteration
// t. Every vertex's RNG stream is keyed by (t, vertex), so the result is
// independent of chunking, threading, scheduling, and backend.
func (p *PhiStage) Run(t int, eps float64, nodes []int32, beta []float64, newPhi []float64) error {
	if len(nodes) == 0 {
		return nil
	}
	k := p.Cfg.K
	pipelined, chunkN := p.plan(len(nodes))
	bufs := &p.bufs
	// errVal is shared between the pipeline's load goroutine and the compute
	// caller; guard it with a mutex rather than relying on ordering.
	var errMu sync.Mutex
	var errVal error
	setErr := func(err error) {
		errMu.Lock()
		if errVal == nil {
			errVal = err
		}
		errMu.Unlock()
	}
	hasErr := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return errVal != nil
	}

	load := func(c, slot int) {
		if hasErr() {
			return
		}
		b := &bufs[slot]
		b.lo = c * chunkN
		b.hi = min(b.lo+chunkN, len(nodes))
		cnt := b.hi - b.lo
		if cap(b.rngs) < cnt {
			b.rngs = make([]mathx.RNG, cnt)
		}
		b.rngs = b.rngs[:cnt]
		if cap(b.samples) < cnt {
			b.samples = make([]sampling.NeighborSample, cnt)
		}
		b.samples = b.samples[:cnt]
		// Each vertex's stream is keyed by (t, vertex) and each worker writes
		// only its own vertices' slots, so the draw is order-free.
		sampleStart := obs.TraceNow()
		par.ForWorkers(cnt, p.Threads, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				a := nodes[b.lo+i]
				b.rngs[i].SeedStream(p.Cfg.Seed, StreamVertex(t, int(a)))
				p.Neigh.Sample(a, &b.rngs[i], &b.samples[i])
			}
		})
		p.Obs.Interval(t, engine.PhaseSampleNeighbors, sampleStart)
		defer p.Obs.Interval(t, engine.PhaseLoadPi, obs.TraceNow())
		b.keys = b.keys[:0]
		b.nodeOff = b.nodeOff[:0]
		for i := range b.samples {
			b.nodeOff = append(b.nodeOff, len(b.keys))
			b.keys = append(b.keys, nodes[b.lo+i])
			b.keys = append(b.keys, b.samples[i].Nodes...)
		}
		if err := p.Store.ReadRows(b.keys, &b.rows); err != nil {
			setErr(err)
		}
	}

	// Per-worker scratch is pooled on the stage and indexed by ForWorkers'
	// worker id. Only one compute runs at a time (chunks are computed
	// strictly in order even when pipelined) and workers own disjoint ids,
	// so the pool needs no locking.
	workers := par.Workers(len(nodes), p.Threads)
	for len(p.scratch) < workers {
		p.scratch = append(p.scratch, NewPhiScratch(k))
	}

	compute := func(c, slot int) {
		if hasErr() {
			return
		}
		defer p.Obs.Interval(t, engine.PhaseComputePhi, obs.TraceNow())
		b := &bufs[slot]
		par.ForWorkers(b.hi-b.lo, p.Threads, func(w, wLo, wHi int) {
			sc := p.scratch[w]
			rows := sc.Rows()
			for i := wLo; i < wHi; i++ {
				ns := &b.samples[i]
				base := b.nodeOff[i]
				rows = rows[:0]
				for j := range ns.Nodes {
					rows = append(rows, b.rows.PiRow(base+1+j))
				}
				idx := b.lo + i
				UpdatePhi(p.Cfg, eps, b.rows.PiRow(base), b.rows.PhiSum[base],
					rows, ns.Linked, ns.Scale, beta, &b.rngs[i],
					newPhi[idx*k:(idx+1)*k], sc)
			}
			sc.SetRows(rows)
		})
	}

	if pipelined {
		par.PipelineDepth((len(nodes)+chunkN-1)/chunkN, load, compute)
	} else {
		load(0, 0)
		compute(0, 0)
	}
	errMu.Lock()
	defer errMu.Unlock()
	return errVal
}

// ThetaPartials is the gradient half of the update_beta_theta phase: it
// reads the (fresh, post-update_pi) π rows of the given pairs through the
// store and accumulates the θ-gradient per ThetaChunk-sized chunk, returning
// the per-chunk partial vectors flattened as nChunks·2K float64s. The chunks
// fold in chunk order (FoldThetaPartials), so the summation order — and the
// trained model — is identical across thread counts, rank counts, and
// backends, as long as rank partitions are ThetaChunk-aligned.
func ThetaPartials(cfg *Config, ps store.PiStore, pairs []graph.Edge, link []bool, theta, beta []float64, threads int) ([]float64, error) {
	k := cfg.K
	nChunks := (len(pairs) + ThetaChunk - 1) / ThetaChunk
	partials := make([]float64, nChunks*2*k)
	if len(pairs) == 0 {
		return partials, nil
	}
	keys := make([]int32, 0, 2*len(pairs))
	for _, e := range pairs {
		keys = append(keys, e.A, e.B)
	}
	var rows store.Rows
	if err := ps.ReadRows(keys, &rows); err != nil {
		return nil, err
	}
	par.ForEach(nChunks, threads, func(c int) {
		lo := c * ThetaChunk
		hi := min(lo+ThetaChunk, len(pairs))
		acc := partials[c*2*k : (c+1)*2*k]
		sc := NewThetaScratch(k)
		for i := lo; i < hi; i++ {
			AccumulateThetaGrad(rows.PiRow(2*i), rows.PiRow(2*i+1),
				theta, beta, cfg.Delta, link[i], acc, sc)
		}
	})
	return partials, nil
}

// FoldThetaPartials folds chunk partial vectors (concatenated 2K-wide
// chunks, as returned by ThetaPartials) into grad in chunk order. The
// distributed master calls it once per rank in rank order, which — with
// chunk-aligned rank partitions — reproduces the sequential fold exactly.
func FoldThetaPartials(grad, partials []float64, k int) {
	w := 2 * k
	for off := 0; off < len(partials); off += w {
		chunk := partials[off : off+w]
		for i, v := range chunk {
			grad[i] += v
		}
	}
}

// HeldOutEval is the store-backed held-out perplexity evaluator (Eqn 7,
// the perplexity phase): it keeps the running posterior-mean probability of
// each held-out pair in a shard [Lo, Hi) and folds one posterior sample per
// call. The local sampler owns the full range; each distributed rank owns a
// PerplexityChunk-aligned shard and the master sums the returned per-chunk
// log partials across ranks in rank order — the same fold order as the
// sequential ChunkedReduce.
type HeldOutEval struct {
	Held   *graph.HeldOut
	Delta  float64
	Lo, Hi int // pair index shard, PerplexityChunk-aligned
	Avg    []float64
	T      int // posterior samples folded so far
}

// NewHeldOutEval creates an evaluator for shard [lo, hi) of held.
func NewHeldOutEval(held *graph.HeldOut, delta float64, lo, hi int) *HeldOutEval {
	return &HeldOutEval{Held: held, Delta: delta, Lo: lo, Hi: hi, Avg: make([]float64, hi-lo)}
}

// Fold folds the current π (read through ps) and β in as one posterior
// sample and returns the shard's per-chunk Σlog(avg) partials.
func (h *HeldOutEval) Fold(ps store.PiStore, beta []float64, threads int) ([]float64, error) {
	h.T++
	tInv := 1 / float64(h.T)
	nLocal := h.Hi - h.Lo
	nChunks := (nLocal + PerplexityChunk - 1) / PerplexityChunk
	partials := make([]float64, nChunks)
	if nLocal == 0 {
		return partials, nil
	}
	keys := make([]int32, 0, 2*nLocal)
	for i := h.Lo; i < h.Hi; i++ {
		e := h.Held.Pairs[i]
		keys = append(keys, e.A, e.B)
	}
	var rows store.Rows
	if err := ps.ReadRows(keys, &rows); err != nil {
		return nil, err
	}
	par.ForEach(nChunks, threads, func(c int) {
		lo := c * PerplexityChunk
		hi := min(lo+PerplexityChunk, nLocal)
		var logSum float64
		for i := lo; i < hi; i++ {
			prob := EdgeProbability(rows.PiRow(2*i), rows.PiRow(2*i+1), beta, h.Delta, h.Held.Linked[h.Lo+i])
			h.Avg[i] += (prob - h.Avg[i]) * tInv
			v := h.Avg[i]
			if v < 1e-300 {
				v = 1e-300
			}
			logSum += math.Log(v)
		}
		partials[c] = logSum
	})
	return partials, nil
}

// PerplexityFromLogSum turns a summed Σlog(avg) over n held-out pairs into
// the averaged perplexity of Eqn (7).
func PerplexityFromLogSum(logSum float64, n int) float64 {
	return math.Exp(-logSum / float64(n))
}
