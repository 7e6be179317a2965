package obs

import (
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
// counted (and mirrored into the registry counter) instead of growing.
func TestTracerDropAccounting(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(0, 4)
	tr.SetDropCounter(reg.Counter(CtrSpansDropped))
	for i := 0; i < 10; i++ {
		tr.Emit(Span{ID: tr.NewID(), Name: "s", Cat: CatStage, Peer: NoPeer, Iter: i})
	}
	if n := len(tr.Bundle().Spans); n != 4 {
		t.Fatalf("%d spans buffered, want the capacity 4", n)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", tr.Dropped())
	}
	if got := reg.Counter(CtrSpansDropped).Load(); got != 6 {
		t.Fatalf("registry %s = %d, want 6", CtrSpansDropped, got)
	}
	if b := tr.Bundle(); b.Dropped != 6 {
		t.Fatalf("bundle Dropped = %d, want 6", b.Dropped)
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

// TestTraceBundleRoundTrip checks the gather encoding is lossless.
func TestTraceBundleRoundTrip(t *testing.T) {
	in := TraceBundle{
		Rank:    2,
		Dropped: 11,
		Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 2, Track: TrackEngine, Peer: NoPeer, Iter: 0, StartNS: 100, DurNS: 900},
			{ID: 2, Parent: 1, Name: "gather", Cat: CatCollective, Rank: 2, Track: TrackEngine, Peer: NoPeer, Iter: 0, Tag: 5, StartNS: 150, DurNS: 50},
			{ID: 3, Parent: 2, Name: "recv", Cat: CatRecv, Rank: 2, Track: TrackEngine, Peer: 0, Iter: 0, Tag: 5, StartNS: 160, DurNS: 30},
			{ID: 4, Name: "dkv.serve.read", Cat: CatDKVServe, Rank: 2, Track: TrackDKVServer, Peer: 1, Iter: -1, Tag: 42, StartNS: 400, DurNS: 80},
		},
	}
	out, err := DecodeTraceBundle(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Rank != in.Rank || out.Dropped != in.Dropped || len(out.Spans) != len(in.Spans) {
		t.Fatalf("round trip header mismatch: %+v", out)
	}
	for i := range in.Spans {
		if out.Spans[i] != in.Spans[i] {
			t.Errorf("span %d: got %+v, want %+v", i, out.Spans[i], in.Spans[i])
		}
	}
	if _, err := DecodeTraceBundle([]byte("{broken")); err == nil {
		t.Fatal("DecodeTraceBundle accepted malformed JSON")
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
