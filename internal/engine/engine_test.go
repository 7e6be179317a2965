package engine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
)

func TestLoopRunsStagesInOrderWithTiming(t *testing.T) {
	ph := obs.NewPhases()
	var order []string
	mk := func(name string) Stage {
		return Stage{Name: name, Run: func(int) error {
			order = append(order, name)
			return nil
		}}
	}
	l := &Loop{
		Obs: &obs.Observer{Phases: ph},
		Stages: []Stage{
			mk("a"),
			{Run: func(int) error { order = append(order, "barrier"); return nil }},
			mk("b"),
		},
	}
	if err := l.Run(3); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "barrier", "b", "a", "barrier", "b", "a", "barrier", "b"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("stage order %v, want %v", order, want)
	}
	if ph.Count("a") != 3 || ph.Count("b") != 3 {
		t.Fatalf("timed counts a=%d b=%d, want 3 each", ph.Count("a"), ph.Count("b"))
	}
	// The unnamed barrier stage must not appear in the trace.
	for _, name := range ph.Names() {
		if name == "" {
			t.Fatal("unnamed stage leaked into the trace")
		}
	}
}

// TestLoopGatedStage pins Stage.Every: a gated stage runs, and is timed,
// labelled and traced, only after every Every-th iteration; on the others it
// leaves no trace at all.
func TestLoopGatedStage(t *testing.T) {
	ph := obs.NewPhases()
	tr := obs.NewTracer(0, 0)
	var ran, labels []string
	l := &Loop{
		Obs: &obs.Observer{Phases: ph, Tracer: tr, PhaseLabel: func(name string) { labels = append(labels, name) }},
		Stages: []Stage{
			{Name: "a", Run: func(int) error { return nil }},
			{Name: "eval", Every: 2, Run: func(t int) error { ran = append(ran, fmt.Sprint(t)); return nil }},
		},
	}
	if err := l.Run(5); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ran) != "[1 3]" {
		t.Fatalf("gated stage ran at iterations %v, want [1 3]", ran)
	}
	if ph.Count("eval") != 2 || ph.Count("a") != 5 {
		t.Fatalf("timed counts eval=%d a=%d, want 2 and 5", ph.Count("eval"), ph.Count("a"))
	}
	var evalLabels, evalSpans int
	for _, name := range labels {
		if name == "eval" {
			evalLabels++
		}
	}
	for _, sp := range tr.Bundle().Spans {
		if sp.Name == "eval" {
			evalSpans++
		}
	}
	if evalLabels != 2 || evalSpans != 2 {
		t.Fatalf("gated stage labelled %d and traced %d times, want 2 each", evalLabels, evalSpans)
	}
}

func TestLoopStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []string
	l := &Loop{Stages: []Stage{
		{Name: "ok", Run: func(int) error { ran = append(ran, "ok"); return nil }},
		{Name: "bad", Run: func(int) error { return boom }},
		{Name: "never", Run: func(int) error { ran = append(ran, "never"); return nil }},
	}}
	err := l.Run(5)
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost: %v", err)
	}
	if got := fmt.Sprint(ran); got != "[ok]" {
		t.Fatalf("stages after the failure ran: %v", ran)
	}
	// Run wraps with the iteration number.
	if want := "iteration 0:"; err == nil || len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Fatalf("error %q does not carry the iteration", err)
	}
}

func TestLoopFaultHook(t *testing.T) {
	injected := errors.New("injected")
	var stageRan bool
	l := &Loop{
		FaultHook: func(t int) error {
			if t == 2 {
				return injected
			}
			return nil
		},
		Stages: []Stage{{Name: "s", Run: func(int) error { stageRan = true; return nil }}},
	}
	if err := l.RunIteration(0); err != nil || !stageRan {
		t.Fatalf("clean iteration failed: %v (stage ran: %v)", err, stageRan)
	}
	err := l.RunIteration(2)
	if !errors.Is(err, injected) {
		t.Fatalf("fault hook error chain lost: %v", err)
	}
}

// TestLoopPhaseHook: the hook fires before every stage with the stage's
// name, unnamed wiring stages reporting as PhaseBarrier — the label sequence
// the instrumented transport attributes receive waits with.
func TestLoopPhaseHook(t *testing.T) {
	var labels []string
	noop := func(int) error { return nil }
	l := &Loop{
		Obs: &obs.Observer{Phases: obs.NewPhases(), PhaseLabel: func(name string) { labels = append(labels, name) }},
		Stages: []Stage{
			{Name: "update_phi", Run: noop},
			{Run: noop}, // unnamed barrier
			{Name: "update_pi", Run: noop},
		},
	}
	if err := l.RunIteration(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"update_phi", PhaseBarrier, "update_pi"}
	if len(labels) != len(want) {
		t.Fatalf("hook fired %d times (%v), want %d", len(labels), labels, len(want))
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("phase sequence %v, want %v", labels, want)
		}
	}
}

func TestLoopValidate(t *testing.T) {
	ok := &Loop{Stages: []Stage{
		{Name: "draw", Reads: []string{"graph"}, Writes: []string{"batch"}},
		{Name: "phi", Reads: []string{"batch", "pi"}, Writes: []string{"new_phi"}},
		{Name: "pi", Reads: []string{"new_phi"}, Writes: []string{"pi"}},
	}}
	if err := ok.Validate([]string{"graph", "pi"}); err != nil {
		t.Fatalf("valid dataflow rejected: %v", err)
	}
	bad := &Loop{Stages: []Stage{
		{Name: "phi", Reads: []string{"batch"}, Writes: []string{"new_phi"}},
		{Name: "draw", Reads: []string{"graph"}, Writes: []string{"batch"}},
	}}
	if err := bad.Validate([]string{"graph"}); err == nil {
		t.Fatal("read-before-write dataflow accepted")
	}
}

func TestLoopValidatePublishes(t *testing.T) {
	// Publishing a resource after the barrier that fences its write is legal.
	ok := &Loop{Stages: []Stage{
		{Name: "pi", Reads: []string{"new_phi"}, Writes: []string{"pi"}},
		{Barrier: true},
		{Name: "publish", Reads: []string{"pi"}, Publishes: []string{"pi"}},
	}}
	if err := ok.Validate([]string{"new_phi", "pi"}); err != nil {
		t.Fatalf("valid publish dataflow rejected: %v", err)
	}

	// Publishing between the write and its barrier would seal a half-written
	// iteration; Validate must reject it.
	unfenced := &Loop{Stages: []Stage{
		{Name: "pi", Reads: []string{"new_phi"}, Writes: []string{"pi"}},
		{Name: "publish", Reads: []string{"pi"}, Publishes: []string{"pi"}},
		{Barrier: true},
	}}
	if err := unfenced.Validate([]string{"new_phi", "pi"}); err == nil {
		t.Fatal("publish-before-barrier dataflow accepted")
	}

	// Publishing a resource nothing provides is a plain dataflow error.
	unknown := &Loop{Stages: []Stage{
		{Name: "publish", Publishes: []string{"pi"}},
	}}
	if err := unknown.Validate(nil); err == nil {
		t.Fatal("publish of an unprovided resource accepted")
	}

	// A barrier clears dirtiness only for writes before it: a later write
	// re-dirties the resource for subsequent publishes.
	rewrite := &Loop{Stages: []Stage{
		{Name: "pi", Writes: []string{"pi"}},
		{Barrier: true},
		{Name: "pi2", Writes: []string{"pi"}},
		{Name: "publish", Publishes: []string{"pi"}},
	}}
	if err := rewrite.Validate(nil); err == nil {
		t.Fatal("publish after re-dirtying write accepted")
	}
}

func TestPrefetcher(t *testing.T) {
	var produced []int
	p := NewPrefetcher(func(t int) int {
		produced = append(produced, t)
		return t * 10
	})
	// Synchronous path: nothing in flight.
	if got := p.Next(0); got != 0 {
		t.Fatalf("Next(0) = %d", got)
	}
	// Prefetched path.
	p.Start(1)
	if got := p.Next(1); got != 10 {
		t.Fatalf("Next(1) = %d", got)
	}
	// After draining, the next call is synchronous again.
	if got := p.Next(2); got != 20 {
		t.Fatalf("Next(2) = %d", got)
	}
	if fmt.Sprint(produced) != "[0 1 2]" {
		t.Fatalf("producer calls %v", produced)
	}
	// Double Start is a scheduling bug and must panic.
	p.Start(3)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	p.Start(4)
}

// TestLoopTracerSpans checks the loop's span shape: one iter span per
// iteration, one stage span per stage parented under it (unnamed barrier
// stages appear as PhaseBarrier), and the scope restored after each.
func TestLoopTracerSpans(t *testing.T) {
	tr := obs.NewTracer(0, 0)
	l := &Loop{
		Obs: &obs.Observer{Phases: obs.NewPhases(), Tracer: tr},
		Stages: []Stage{
			{Name: "a", Run: func(int) error { return nil }},
			{Run: func(int) error { return nil }}, // unnamed barrier
		},
	}
	if err := l.Run(2); err != nil {
		t.Fatal(err)
	}
	if tr.Scope() != 0 {
		t.Fatalf("scope not restored after the run: %d", tr.Scope())
	}
	b := tr.Bundle()
	iters := map[int]obs.SpanID{}
	var stages []obs.Span
	for _, sp := range b.Spans {
		switch sp.Cat {
		case obs.CatIter:
			iters[sp.Iter] = sp.ID
		case obs.CatStage:
			stages = append(stages, sp)
		}
	}
	if len(iters) != 2 {
		t.Fatalf("iter spans for %d iterations, want 2", len(iters))
	}
	if len(stages) != 4 {
		t.Fatalf("%d stage spans, want 4 (2 stages x 2 iterations)", len(stages))
	}
	names := map[string]int{}
	for _, sp := range stages {
		if sp.Parent != iters[sp.Iter] {
			t.Errorf("stage %q of iter %d parented under %d, want %d", sp.Name, sp.Iter, sp.Parent, iters[sp.Iter])
		}
		names[sp.Name]++
	}
	if names["a"] != 2 || names[PhaseBarrier] != 2 {
		t.Errorf("stage span names %v, want a=2 %s=2", names, PhaseBarrier)
	}
}

// TestLoopIterationZeroCostWhenUntraced pins the telemetry-off bargain: with
// the observer's optional parts nil, an iteration of the loop machinery
// allocates nothing — the stage bracket costs two clock reads and a phase
// table update, no closure or token on the heap.
func TestLoopIterationZeroCostWhenUntraced(t *testing.T) {
	l := &Loop{
		Obs: obs.NewObserver(),
		Stages: []Stage{
			{Name: "a", Run: func(int) error { return nil }},
			{Name: "b", Run: func(int) error { return nil }},
		},
	}
	iter := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := l.RunIteration(iter); err != nil {
			t.Fatal(err)
		}
		iter++
	})
	if allocs != 0 {
		t.Fatalf("untraced RunIteration allocates %.1f allocs/op, want 0", allocs)
	}
}
