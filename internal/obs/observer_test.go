package obs

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestObserverStageDerivesEveryView: one bracketed stage is one measurement,
// and the phase table, the histogram, the iter event and the span all carry
// that same number. Untimed wiring is labelled and drawn but not tabulated.
func TestObserverStageDerivesEveryView(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	reg := NewRegistry()
	var labels []string
	o := NewObserver()
	o.Rec = NewRunRecorder(sink, 0, reg)
	o.Tracer = NewTracer(0, 0)
	o.PhaseLabel = func(name string) { labels = append(labels, name) }

	outer := o.Tracer.NewID()
	o.Tracer.SetScope(outer)
	var inside SpanID
	if err := o.Stage(3, "update_phi", true, func(iter int) error {
		inside = o.Tracer.Scope()
		time.Sleep(time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := o.Stage(3, "barrier", false, func(int) error { return boom }); err != boom {
		t.Fatalf("Stage returned %v, want the stage's error", err)
	}
	o.Rec.IterDone(3)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	if got := o.Tracer.Scope(); got != outer {
		t.Errorf("scope after the stages = %d, want the enclosing span %d restored", got, outer)
	}
	spans := o.Tracer.Bundle().Spans
	if len(spans) != 2 || spans[0].Name != "update_phi" || spans[1].Name != "barrier" {
		t.Fatalf("spans %+v, want update_phi then barrier", spans)
	}
	if spans[0].ID != inside || spans[0].Parent != outer || spans[0].Cat != CatStage || spans[0].Iter != 3 {
		t.Errorf("stage span %+v: want it open as scope %d during the run, parented under %d", spans[0], inside, outer)
	}
	if want := []string{"update_phi", "barrier"}; len(labels) != 2 || labels[0] != want[0] || labels[1] != want[1] {
		t.Errorf("phase labels %v, want %v", labels, want)
	}

	total := o.Phases.Total("update_phi")
	if total < time.Millisecond || int64(total) != spans[0].DurNS {
		t.Errorf("phase table %v vs span %dns: want the same measurement", total, spans[0].DurNS)
	}
	if names := o.Phases.Names(); len(names) != 1 {
		t.Errorf("phase table holds %v; untimed wiring must stay out", names)
	}
	wantMS := float64(total) / float64(time.Millisecond)
	if h := reg.Snapshot().Histograms["stage.update_phi"]; h.Count != 1 || h.SumMS != wantMS {
		t.Errorf("histogram %+v, want one observation of %v ms", h, wantMS)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || len(events[0].StagesMS) != 1 || events[0].StagesMS["update_phi"] != wantMS {
		t.Errorf("events %+v, want one iter event with update_phi = %v ms", events, wantMS)
	}
}

// TestObserverIntervalConcurrent: the pipelined φ stage reports load and
// compute intervals from two goroutines; off-loop intervals (NoIter) reach
// the phase table only; a nil observer is inert.
func TestObserverIntervalConcurrent(t *testing.T) {
	reg := NewRegistry()
	o := NewObserver()
	o.Rec = NewRunRecorder(nil, 0, reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				o.Interval(i%4, "update_phi.load_pi", TraceNow())
			}
		}()
	}
	wg.Wait()
	o.Interval(NoIter, "perplexity", TraceNow())

	if got := o.Phases.Count("update_phi.load_pi"); got != 4000 {
		t.Errorf("phase table counted %d intervals, want 4000", got)
	}
	hists := reg.Snapshot().Histograms
	if got := hists["stage.update_phi.load_pi"].Count; got != 4000 {
		t.Errorf("histogram counted %d intervals, want 4000", got)
	}
	if o.Phases.Count("perplexity") != 1 {
		t.Error("off-loop interval missing from the phase table")
	}
	if _, ok := hists["stage.perplexity"]; ok {
		t.Error("off-loop interval reached the recorder")
	}

	var none *Observer
	none.Interval(0, "x", TraceNow())
	if err := none.Stage(0, "x", true, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
