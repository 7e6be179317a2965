package obs

import "time"

// Observer is one rank's single timing authority: every stage boundary is
// read once, on one clock (TraceNow), and every view of that measurement —
// the cumulative phase table, the per-iteration event's stages_ms, the
// stage.<name> latency histogram and the CatStage span — is derived from the
// same (iter, name, start, duration). The views therefore agree to the
// nanosecond by construction; a side channel that times a stage again would
// break that, which is what TestEveryViewIsTheSameMeasurement guards.
//
// Phases is always on. Rec, Tracer and PhaseLabel are optional and nil by
// default: an unobserved run pays two clock reads and one map update per
// stage and allocates nothing. A nil *Observer observes nothing.
type Observer struct {
	// Phases is the cumulative per-stage table (Table III).
	Phases *Phases
	// Rec, when non-nil, receives every timed interval keyed by iteration
	// and turns them into iter events, histograms and monitor gauges.
	Rec *RunRecorder
	// Tracer, when non-nil, records one span per bracketed stage, left as
	// the tracer's scope while the stage runs so collectives and DKV waits
	// nest under it.
	Tracer *Tracer
	// PhaseLabel, when non-nil, is told each stage's name before it runs.
	// The distributed engine points it at cluster.Comm.SetPhase so the
	// instrumented transport attributes blocking-receive time to the phase
	// whose collectives caused it — and only when a recorder exists, because
	// labelling opens transport.wait.<phase> histograms that a run nobody
	// observes must not create.
	PhaseLabel func(name string)
}

// NewObserver returns an observer with an empty phase table and no optional
// parts.
func NewObserver() *Observer { return &Observer{Phases: NewPhases()} }

// NoIter marks an interval outside any iteration (an evaluation between
// iterations, the whole-run total): it has no iter event to land in, so it
// feeds the phase table only.
const NoIter = -1

// Stage brackets one loop stage of iteration iter: label the transport
// phase, open the stage span as the tracer's scope, run, close. timed=false
// marks untimed wiring (the distributed engine's barriers): it is labelled
// and drawn on the timeline, but kept out of the phase table and the iter
// event. run is called exactly once and its error returned.
func (o *Observer) Stage(iter int, name string, timed bool, run func(iter int) error) error {
	if o == nil {
		return run(iter)
	}
	if o.PhaseLabel != nil {
		o.PhaseLabel(name)
	}
	var id, parent SpanID
	if o.Tracer != nil {
		id = o.Tracer.NewID()
		parent = o.Tracer.SetScope(id)
	}
	start := TraceNow()
	err := run(iter)
	dur := TraceNow() - start
	if timed {
		o.record(iter, name, dur)
	}
	if o.Tracer != nil {
		o.Tracer.Emit(Span{
			ID: id, Parent: parent, Name: name, Cat: CatStage,
			Track: TrackEngine, Peer: NoPeer, Iter: iter,
			StartNS: start, DurNS: dur,
		})
		o.Tracer.SetScope(parent)
	}
	return err
}

// Interval reports an interval that began at startNS (a TraceNow reading)
// and ends now: a sub-stage of a bracketed stage (update_phi.load_pi), work
// that overlaps the loop (the prefetched minibatch draw, keyed by the
// iteration it belongs to, not the one it overlaps), or — with NoIter — time
// outside the loop. Intervals feed the phase table and the iter event; they
// are not spans. Safe for concurrent use: the pipelined φ stage reports load
// and compute from two goroutines.
//
//	defer o.Interval(t, "update_phi.load_pi", obs.TraceNow())
func (o *Observer) Interval(iter int, name string, startNS int64) {
	if o == nil {
		return
	}
	o.record(iter, name, TraceNow()-startNS)
}

func (o *Observer) record(iter int, name string, durNS int64) {
	d := time.Duration(durNS)
	o.Phases.Add(name, d)
	if o.Rec != nil && iter != NoIter {
		o.Rec.StageDone(iter, name, d)
	}
}
