package obs

import (
	"bytes"
	"sync"
	"testing"
)

// TestTracerScopeNesting drives the tracer the way engine.Loop does — iter
// span as scope, stage spans inside, a child emitted under the stage — and
// checks the parent chain reconstructs the nesting.
func TestTracerScopeNesting(t *testing.T) {
	tr := NewTracer(3, 0)
	if tr.Iter() != -1 {
		t.Fatalf("fresh tracer Iter() = %d, want -1", tr.Iter())
	}
	if tr.Scope() != 0 {
		t.Fatalf("fresh tracer Scope() = %d, want 0", tr.Scope())
	}

	tr.SetIter(7)
	iterID := tr.NewID()
	prev := tr.SetScope(iterID)
	if prev != 0 {
		t.Fatalf("SetScope returned previous scope %d, want 0", prev)
	}

	stageID := tr.NewID()
	if got := tr.SetScope(stageID); got != iterID {
		t.Fatalf("SetScope returned %d, want iter id %d", got, iterID)
	}
	// A concurrent emitter (collective, DKV wait) parents under the scope.
	childID := tr.NewID()
	tr.Emit(Span{ID: childID, Parent: tr.Scope(), Name: "recv", Cat: CatRecv,
		Track: TrackEngine, Peer: 1, Iter: tr.Iter(), StartNS: 10, DurNS: 5})
	tr.Emit(Span{ID: stageID, Parent: iterID, Name: "update_phi", Cat: CatStage,
		Track: TrackEngine, Peer: NoPeer, Iter: tr.Iter(), StartNS: 5, DurNS: 20})
	if got := tr.SetScope(iterID); got != stageID {
		t.Fatalf("restoring scope returned %d, want stage id %d", got, stageID)
	}
	tr.Emit(Span{ID: iterID, Name: "iter", Cat: CatIter,
		Track: TrackEngine, Peer: NoPeer, Iter: tr.Iter(), StartNS: 0, DurNS: 30})
	tr.SetScope(prev)

	b := tr.Bundle()
	if b.Rank != 3 || len(b.Spans) != 3 || b.Dropped != 0 {
		t.Fatalf("bundle = rank %d, %d spans, %d dropped; want rank 3, 3 spans, 0 dropped", b.Rank, len(b.Spans), b.Dropped)
	}
	byID := map[SpanID]Span{}
	for _, sp := range b.Spans {
		if sp.Rank != 3 {
			t.Fatalf("Emit did not stamp the tracer rank: %+v", sp)
		}
		byID[sp.ID] = sp
	}
	if byID[childID].Parent != stageID {
		t.Errorf("recv span parent = %d, want stage %d", byID[childID].Parent, stageID)
	}
	if byID[stageID].Parent != iterID {
		t.Errorf("stage span parent = %d, want iter %d", byID[stageID].Parent, iterID)
	}
	if byID[iterID].Parent != 0 {
		t.Errorf("iter span parent = %d, want 0 (root)", byID[iterID].Parent)
	}
	if got := byID[iterID].End(); got != 30 {
		t.Errorf("iter End() = %d, want 30", got)
	}
}

// TestTracerDropAccounting fills the bounded buffer and checks overflow is
// counted instead of growing, and that ending the timeline keeps what was
// buffered while discarding later spans uncounted.
func TestTracerDropAccounting(t *testing.T) {
	tr := NewTracer(0, 4)
	for i := 0; i < 10; i++ {
		tr.Emit(Span{ID: tr.NewID(), Name: "s", Cat: CatStage, Peer: NoPeer, Iter: i})
	}
	tr.StreamTo(nil)
	tr.Emit(Span{ID: tr.NewID(), Name: "after the run", Cat: CatStage, Peer: NoPeer})
	if b := tr.Bundle(); len(b.Spans) != 4 || b.Dropped != 6 {
		t.Fatalf("bundle holds %d spans, %d dropped; want the capacity 4 and 6", len(b.Spans), b.Dropped)
	}
}

// TestTracerConcurrentEmit exercises Emit from many goroutines (the engine,
// pipelined loader, and DKV server all emit concurrently in a real run);
// run under -race this is the data-race check.
func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.NewID()
				tr.Emit(Span{ID: id, Parent: tr.Scope(), Name: "x", Cat: CatDKVServe,
					Track: TrackDKVServer, Peer: 1, Iter: tr.Iter()})
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Bundle().Spans); n != 8*200 {
		t.Fatalf("%d spans buffered, want %d", n, 8*200)
	}
	seen := map[SpanID]bool{}
	for _, sp := range tr.Bundle().Spans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		seen[sp.ID] = true
	}
}

// TestTracerStreamTo: a streaming tracer writes each span into the log as
// one span event (and buffers nothing); once the stream ends, later spans are
// discarded, not buffered.
func TestTracerStreamTo(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	tr := NewTracer(1, 0)
	tr.StreamTo(sink)
	want := Span{ID: tr.NewID(), Name: "update_pi", Cat: CatStage, Rank: 1, Peer: NoPeer, Iter: 3, StartNS: 10, DurNS: 20}
	tr.Emit(want)
	tr.StreamTo(nil)
	tr.Emit(Span{ID: tr.NewID(), Name: "late", Cat: CatStage, Peer: NoPeer, StartNS: 40, DurNS: 1})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Type != EventSpan || events[0].Rank != 1 || *events[0].Span != want {
		t.Fatalf("log = %+v, want one span event carrying %+v", events, want)
	}
	if b := tr.Bundle(); len(b.Spans) != 0 || b.Dropped != 0 {
		t.Fatalf("streaming tracer buffered %d spans, dropped %d", len(b.Spans), b.Dropped)
	}
}

// TestTraceNowMonotone guards the clock the whole layer leans on.
func TestTraceNowMonotone(t *testing.T) {
	a := TraceNow()
	b := TraceNow()
	if a < 0 || b < a {
		t.Fatalf("TraceNow not monotone: %d then %d", a, b)
	}
}
