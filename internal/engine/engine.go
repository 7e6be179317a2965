// Package engine provides the stage-based iteration machinery shared by the
// local (core.Sampler) and distributed (dist.Run) samplers: the canonical
// phase names of the paper's Table III, a Stage/Loop scheduler that runs
// every due stage through one obs.Observer bracket (the single source of the
// phase table, iter events and spans) and gives fault injection one uniform
// point per iteration, the single-slot Prefetcher behind the master's
// minibatch pipelining (Section III-D), and the chunk-aligned partition
// helpers both engines split work with.
//
// The package knows nothing about the model (it imports only internal/obs),
// so that internal/core can build its sampler on it while internal/dist
// reuses the exact same scheduler around its collectives.
package engine

import (
	"fmt"

	"repro/internal/obs"
)

// Phase names used in traces; the Table III harness keys off these.
const (
	PhaseDrawMinibatch   = "draw_minibatch"
	PhaseDeployMinibatch = "deploy_minibatch"
	PhaseUpdatePhi       = "update_phi"
	PhaseSampleNeighbors = "update_phi.sample_neighbors"
	PhaseLoadPi          = "update_phi.load_pi"
	PhaseComputePhi      = "update_phi.compute"
	PhaseUpdatePi        = "update_pi"
	PhaseUpdateBetaTheta = "update_beta_theta"
	PhasePerplexity      = "perplexity"
	PhasePublish         = "publish_snapshot"
	PhaseReshard         = "reshard"
	PhaseCheckpoint      = "checkpoint"
	PhaseTotal           = "total"
)

// Stage is one named phase of an iteration. Reads and Writes declare the
// dataflow (resource names such as "batch", "pi", "theta"); Loop.Validate
// checks that every stage's inputs are produced before it runs, which is how
// the barrier discipline ("update_phi reads only pre-phase π") is made
// explicit instead of being a comment.
type Stage struct {
	// Name keys the stage in the phase table. An empty Name marks untimed
	// wiring (e.g. the distributed engine's barriers), which runs but does
	// not appear in the phase table.
	Name   string
	Reads  []string
	Writes []string
	// Publishes names resources this stage exposes to readers OUTSIDE the
	// loop (the snapshot publication of internal/store). Publication is a
	// dataflow effect like a read, but with a stricter precondition: the
	// resource must not have been written since the last Barrier stage,
	// because a snapshot sealed mid-phase could capture a half-written
	// iteration. Loop.Validate enforces this.
	Publishes []string
	// Barrier marks this stage as a phase fence: writes before it are
	// committed and globally visible after it (the distributed engine puts
	// its collective barrier here; the sequential loop marks its publish
	// stage). Validate uses it to decide when a written resource becomes
	// publishable.
	Barrier bool
	// Due is the stage's schedule: it runs at iteration t only if Due(t), and
	// on any other iteration is not run, timed, labelled or traced. Nil means
	// every iteration.
	Due func(t int) bool
	Run func(t int) error
}

// Every is the rule "after every n-th iteration"; n ≤ 1 (nil) is every one.
func Every(n int) func(t int) bool {
	if n <= 1 {
		return nil
	}
	return func(t int) bool { return (t+1)%n == 0 }
}

// Loop runs a fixed stage list once per iteration, bracketing each stage
// with Obs and giving FaultHook one uniform injection point per iteration.
type Loop struct {
	Stages []Stage
	// Obs times every stage once and derives each view from that interval:
	// named stages land in the phase table and (with a recorder) the iter
	// event; every stage, the unnamed wiring included, is labelled for the
	// transport and (with a tracer) drawn as a span parented under the
	// iteration's. Nil runs the stages unobserved.
	Obs *obs.Observer
	// FaultHook, when non-nil, runs at the top of every iteration; a non-nil
	// return fails the iteration exactly as if a stage had errored.
	FaultHook func(t int) error
}

// PhaseBarrier is the label unnamed wiring stages (the distributed engine's
// barriers) carry in transport phase attribution and on the span timeline —
// where straggler wait concentrates, even though it is untimed in the phase
// table.
const PhaseBarrier = "barrier"

// RunIteration executes iteration t: the fault hook, then every stage in
// order through the observer's bracket, stopping at the first error; then
// the iteration's own span and the recorder's IterDone.
func (l *Loop) RunIteration(t int) error {
	if l.FaultHook != nil {
		if err := l.FaultHook(t); err != nil {
			return fmt.Errorf("injected fault: %w", err)
		}
	}
	var tracer *obs.Tracer
	var rec *obs.RunRecorder
	if l.Obs != nil {
		tracer, rec = l.Obs.Tracer, l.Obs.Rec
	}
	var iterID, prevScope obs.SpanID
	var iterStart int64
	if tracer != nil {
		tracer.SetIter(t)
		iterID = tracer.NewID()
		prevScope = tracer.SetScope(iterID)
		iterStart = obs.TraceNow()
	}
	for i := range l.Stages {
		st := &l.Stages[i]
		if st.Due != nil && !st.Due(t) {
			continue
		}
		name, timed := st.Name, true
		if name == "" {
			name, timed = PhaseBarrier, false
		}
		if err := l.Obs.Stage(t, name, timed, st.Run); err != nil {
			return err
		}
	}
	if tracer != nil {
		tracer.Emit(obs.Span{
			ID: iterID, Name: "iter", Cat: obs.CatIter,
			Track: obs.TrackEngine, Peer: obs.NoPeer, Iter: t,
			StartNS: iterStart, DurNS: obs.TraceNow() - iterStart,
		})
		tracer.SetScope(prevScope)
	}
	if rec != nil {
		rec.IterDone(t)
	}
	return nil
}

// Run executes iterations [from, to).
func (l *Loop) Run(from, to int) error {
	for t := from; t < to; t++ {
		if err := l.RunIteration(t); err != nil {
			return fmt.Errorf("iteration %d: %w", t, err)
		}
	}
	return nil
}

// Validate checks the declared dataflow: walking the stages in order, every
// Read must name a resource provided initially or written by an earlier
// stage (a resource written by a later stage only is exactly the read-own-
// write hazard the phase barriers exist to prevent), and every Publish must
// name a resource that is not dirty — written since the last Barrier stage —
// because publication seals the resource for readers outside the loop, and a
// seal taken between a write and its fence could expose a half-written
// iteration.
func (l *Loop) Validate(initial []string) error {
	have := make(map[string]bool, len(initial))
	dirty := make(map[string]bool)
	for _, r := range initial {
		have[r] = true
	}
	for _, st := range l.Stages {
		if st.Barrier {
			clear(dirty)
		}
		for _, r := range st.Reads {
			if !have[r] {
				return fmt.Errorf("engine: stage %q reads %q before any stage writes it", st.Name, r)
			}
		}
		for _, p := range st.Publishes {
			if !have[p] {
				return fmt.Errorf("engine: stage %q publishes %q before any stage writes it", st.Name, p)
			}
			if dirty[p] {
				return fmt.Errorf("engine: stage %q publishes %q before the write barrier", st.Name, p)
			}
		}
		for _, w := range st.Writes {
			have[w] = true
			dirty[w] = true
		}
	}
	return nil
}

// Prefetcher overlaps producing iteration t+1's value with iteration t's
// compute — the generalised form of the master-side minibatch pipelining of
// Section III-D. Start(t) launches produce(t) concurrently; Next(t) returns
// the prefetched value if one is in flight, or produces synchronously.
// Start and Next must be called from one goroutine (the stage loop).
type Prefetcher[T any] struct {
	produce  func(t int) T
	ch       chan T
	inflight bool
}

// NewPrefetcher wraps a producer function.
func NewPrefetcher[T any](produce func(t int) T) *Prefetcher[T] {
	return &Prefetcher[T]{produce: produce, ch: make(chan T, 1)}
}

// Start begins producing iteration t's value concurrently. At most one
// production may be in flight; starting a second panics (a scheduling bug).
func (p *Prefetcher[T]) Start(t int) {
	if p.inflight {
		panic("engine: Prefetcher.Start with a production already in flight")
	}
	p.inflight = true
	go func() { p.ch <- p.produce(t) }()
}

// Next returns iteration t's value: the in-flight production if Start was
// called, otherwise a synchronous produce(t).
func (p *Prefetcher[T]) Next(t int) T {
	if p.inflight {
		p.inflight = false
		return <-p.ch
	}
	return p.produce(t)
}
