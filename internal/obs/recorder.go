package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// RunRecorder is the per-iteration view of a rank's Observer: it accumulates
// the stage durations the observer reports, folds them with the registry's
// per-iteration counter deltas into one "iter" event on the sink, feeds
// per-stage latency histograms, and maintains the run.* gauges the live
// monitor serves. It is safe for concurrent use: the pipelined φ stage
// reports load/compute sub-stages from two goroutines.
//
// Either sink or registry may be nil: a nil sink records into the registry
// only (monitor-only runs), a nil registry emits events without DKV blocks
// (the local sampler has no parameter-store traffic).
type RunRecorder struct {
	sink *Sink
	rank int
	reg  *Registry

	// start is the TraceNow reading elapsed_ms counts from: events, phase
	// table and spans share the one trace clock.
	start atomic.Int64

	mu sync.Mutex
	// stages accumulates per-iteration: with pipelining on, iteration t+1's
	// minibatch draw overlaps iteration t's compute, so durations must be
	// keyed by the iteration they belong to, not by arrival order.
	stages map[int]map[string]time.Duration
	last   map[string]int64 // counter values at the previous IterDone
}

// NewRunRecorder creates a recorder for one rank. The clock for ElapsedMS
// starts now (or at RunStart, whichever is called).
func NewRunRecorder(sink *Sink, rank int, reg *Registry) *RunRecorder {
	r := &RunRecorder{sink: sink, rank: rank, reg: reg, stages: map[int]map[string]time.Duration{}}
	r.start.Store(TraceNow())
	return r
}

// elapsedMS is the time since the recorder's clock started, in milliseconds.
func (r *RunRecorder) elapsedMS() float64 {
	return float64(TraceNow()-r.start.Load()) / float64(time.Millisecond)
}

// emit forwards an event to the sink, if any. Sink errors are deliberately
// swallowed: telemetry must never fail a training run.
func (r *RunRecorder) emit(e *Event) {
	if r.sink != nil {
		_ = r.sink.Emit(e)
	}
}

// RunStart resets the clock and announces the run topology.
func (r *RunRecorder) RunStart(ranks, iterations int) {
	r.start.Store(TraceNow())
	r.emit(&Event{Type: EventRunStart, Rank: r.rank, Ranks: ranks, Iterations: iterations})
}

// StageDone reports one timed interval of a named stage within iteration
// iter. A stage may report several intervals per iteration (the chunked φ
// pipeline does); they accumulate until IterDone.
func (r *RunRecorder) StageDone(iter int, stage string, d time.Duration) {
	r.mu.Lock()
	m := r.stages[iter]
	if m == nil {
		m = map[string]time.Duration{}
		r.stages[iter] = m
	}
	m[stage] += d
	r.mu.Unlock()
	if r.reg != nil {
		r.reg.Histogram("stage." + stage).Observe(d)
	}
}

// counterDelta snapshots the telemetry counter groups and returns the delta
// since the previous call. Caller holds r.mu.
func (r *RunRecorder) counterDelta() map[string]int64 {
	cur := r.reg.CounterValues("dkv.", "transport.")
	delta := make(map[string]int64, len(cur))
	for name, v := range cur {
		delta[name] = v - r.last[name]
	}
	r.last = cur
	return delta
}

// IterDone marks the end of iteration iter: it flushes the accumulated stage
// durations (and, with a registry attached, the iteration's counter deltas)
// as one iter event and refreshes the monitor gauges.
func (r *RunRecorder) IterDone(iter int) {
	e := &Event{Type: EventIter, Rank: r.rank, Iter: iter, ElapsedMS: r.elapsedMS()}
	r.mu.Lock()
	if m := r.stages[iter]; len(m) > 0 {
		e.StagesMS = make(map[string]float64, len(m))
		for name, d := range m {
			e.StagesMS[name] = float64(d) / float64(time.Millisecond)
		}
	}
	delete(r.stages, iter)
	if r.reg != nil {
		delta := r.counterDelta()
		if dkv := dkvFromCounters(delta); !dkv.IsZero() {
			e.DKV = &dkv
		}
		// Per-peer recv-wait deltas ride each iter event so a stream consumer
		// (obs.Summarize, ocd-analyze) can localise stragglers per link.
		for name, v := range delta {
			peer, kind, ok := ParsePeerCounter(name)
			if !ok || kind != PeerRecvWaitNS || v <= 0 {
				continue
			}
			if e.PeerWaitMS == nil {
				e.PeerWaitMS = map[int]float64{}
			}
			e.PeerWaitMS[peer] = float64(v) / 1e6
		}
	}
	r.mu.Unlock()

	if r.reg != nil {
		r.reg.Gauge(GaugeIteration).Set(float64(iter + 1))
		r.reg.Gauge(GaugeElapsedMS).Set(e.ElapsedMS)
	}
	r.emit(e)
}

// EvalDone reports a perplexity evaluation after iteration iter (1-based,
// matching the engines' PerpPoint.Iter).
func (r *RunRecorder) EvalDone(iter int, perplexity float64) {
	if r.reg != nil {
		r.reg.Gauge(GaugePerplexity).Set(perplexity)
	}
	r.emit(&Event{
		Type:       EventPerplexity,
		Rank:       r.rank,
		Iter:       iter,
		Perplexity: perplexity,
		ElapsedMS:  r.elapsedMS(),
	})
}

// RebalanceDone emits a rebalance event: the straggler mitigation changed
// the minibatch shares after the window ending at iteration iter. weights is
// the share vector the next window runs with, flagged the ranks the window's
// straggler rule flagged, and waitMS the window's per-rank imposed-wait
// totals.
func (r *RunRecorder) RebalanceDone(iter int, weights []float64, flagged []int, waitMS map[int]float64) {
	r.emit(&Event{
		Type:       EventRebalance,
		Rank:       r.rank,
		Iter:       iter,
		Weights:    weights,
		Flagged:    flagged,
		PeerWaitMS: waitMS,
		ElapsedMS:  r.elapsedMS(),
	})
}

// RunEnd emits the closing event with cumulative counters and detaches the
// sink: a stream ends at run_end, whatever the engine goes on to do (the
// trainer's -posterior-samples keeps stepping the sampler past it).
func (r *RunRecorder) RunEnd(iterations int) {
	e := &Event{
		Type:      EventRunEnd,
		Rank:      r.rank,
		Iter:      iterations,
		ElapsedMS: r.elapsedMS(),
	}
	if r.reg != nil {
		if dkv := dkvFromCounters(r.reg.CounterValues("dkv.")); !dkv.IsZero() {
			e.DKV = &dkv
		}
	}
	r.emit(e)
	r.sink = nil
}
