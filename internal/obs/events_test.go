package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenEvents is a miniature but complete run log: run_start, the span
// events of goldenBundles (iteration 0's timeline of both ranks), two ranks'
// iter events with stage durations and DKV deltas, a perplexity point, and
// run_end. Durations are fixed so the encoding is deterministic.
func goldenEvents() []Event {
	events := []Event{{Type: EventRunStart, Rank: 0, Ranks: 2, Iterations: 2}}
	for _, b := range goldenBundles() {
		for i := range b.Spans {
			events = append(events, Event{Type: EventSpan, Rank: b.Rank, Span: &b.Spans[i]})
		}
	}
	return append(events, []Event{
		{
			Type: EventIter, Rank: 0, Iter: 0,
			StagesMS:  map[string]float64{"update_phi": 1.5, "update_phi.load_pi": 0.5, "update_pi": 0.25},
			DKV:       &DKVCounters{LocalKeys: 10, RemoteKeys: 30, Requests: 4, BytesRead: 1024, BytesWritten: 512},
			ElapsedMS: 2,
		},
		{
			Type: EventIter, Rank: 1, Iter: 0,
			StagesMS:  map[string]float64{"update_phi": 1.25, "update_pi": 0.5},
			DKV:       &DKVCounters{LocalKeys: 12, RemoteKeys: 28, Requests: 4, BytesRead: 960, BytesWritten: 480},
			ElapsedMS: 2.5,
		},
		{Type: EventIter, Rank: 0, Iter: 1, StagesMS: map[string]float64{"update_phi": 1.5, "update_pi": 0.25}, ElapsedMS: 4},
		{Type: EventIter, Rank: 1, Iter: 1, StagesMS: map[string]float64{"update_phi": 1.25, "update_pi": 0.5}, ElapsedMS: 4.5},
		{Type: EventPerplexity, Rank: 0, Iter: 2, Perplexity: 42.5, ElapsedMS: 5},
		{Type: EventRunEnd, Rank: 0, Iter: 2, DKV: &DKVCounters{LocalKeys: 22, RemoteKeys: 58, Requests: 8, BytesRead: 1984, BytesWritten: 992}, ElapsedMS: 5.5},
	}...)
}

// TestEventGoldenRoundTrip pins the JSONL schema: encoding the canonical
// stream must reproduce testdata/events.golden.jsonl byte for byte, and
// decoding the golden file must reproduce the original events. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/obs/ when the schema changes
// deliberately (and update DESIGN.md §9 alongside).
func TestEventGoldenRoundTrip(t *testing.T) {
	events := goldenEvents()
	var buf bytes.Buffer
	sink := NewSink(&buf)
	for i := range events {
		if err := sink.Emit(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "events.golden.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("encoded stream differs from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	decoded, err := ReadEvents(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, events) {
		t.Errorf("decode(golden) != original events\ngot:  %+v\nwant: %+v", decoded, events)
	}
}

func TestReadEventsRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"not json", "{"},
		{"unknown type", `{"type":"bogus","rank":0}`},
		{"negative rank", `{"type":"iter","rank":-1}`},
		{"negative stage", `{"type":"iter","rank":0,"stages_ms":{"update_phi":-1}}`},
		{"bad perplexity", `{"type":"perplexity","rank":0,"iter":5}`},
		{"weight above 1", `{"type":"rebalance","rank":0,"weights":[1,1.5]}`},
		{"negative weight", `{"type":"rebalance","rank":0,"weights":[-0.5,1]}`},
		{"rebalance without weights", `{"type":"rebalance","rank":0,"iter":8}`},
		{"flag outside weights", `{"type":"rebalance","rank":0,"weights":[1,0.5],"flagged":[2]}`},
		{"negative flagged rank", `{"type":"rebalance","rank":0,"weights":[1,0.5],"flagged":[-1]}`},
		{"span without span", `{"type":"span","rank":0}`},
		{"unnamed span", `{"type":"span","rank":0,"span":{"cat":"stage","rank":0}}`},
		{"unknown span category", `{"type":"span","rank":0,"span":{"name":"x","cat":"bogus","rank":0}}`},
		{"negative span start", `{"type":"span","rank":0,"span":{"name":"x","cat":"stage","rank":0,"start_ns":-1}}`},
		{"negative span duration", `{"type":"span","rank":0,"span":{"name":"x","cat":"stage","rank":0,"dur_ns":-1}}`},
		{"span of another rank", `{"type":"span","rank":0,"span":{"name":"x","cat":"stage","rank":1}}`},
	}
	for _, c := range cases {
		if _, err := ReadEvents(strings.NewReader(c.line + "\n")); err == nil {
			t.Errorf("%s: ReadEvents accepted %q", c.name, c.line)
		}
	}
}

// TestReadEventsTornTail: a final line cut off mid-record (no trailing
// newline, not decodable) yields every complete event plus a *TornTailError —
// the shape of a crashed run's stream. The same malformed text WITH a
// trailing newline stays a hard error (TestReadEventsRejectsMalformed pins
// that side).
func TestReadEventsTornTail(t *testing.T) {
	in := `{"type":"iter","rank":0,"iter":0}` + "\n" +
		`{"type":"iter","rank":0,"iter":1}` + "\n" +
		`{"type":"iter","rank":0,` // torn mid-write
	events, err := ReadEvents(strings.NewReader(in))
	var torn *TornTailError
	if !errors.As(err, &torn) {
		t.Fatalf("err = %v, want *TornTailError", err)
	}
	if torn.Line != 3 {
		t.Errorf("torn line = %d, want 3", torn.Line)
	}
	if len(events) != 2 || events[1].Iter != 1 {
		t.Fatalf("got %d complete events (%+v), want the 2 before the tear", len(events), events)
	}
	// A complete-but-invalid unterminated tail is still a torn tail: the
	// writer may have died between the JSON body and the newline, but equally
	// between two digits of a field — either way the record is suspect.
	events, err = ReadEvents(strings.NewReader(`{"type":"iter","rank":0,"iter":0}` + "\n" + `{"type":"bogus"}`))
	if !errors.As(err, &torn) {
		t.Fatalf("invalid unterminated tail: err = %v, want *TornTailError", err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	// A valid unterminated final line is accepted silently (a stream captured
	// by a tool that strips the last newline should not warn).
	events, err = ReadEvents(strings.NewReader(`{"type":"iter","rank":0,"iter":0}`))
	if err != nil || len(events) != 1 {
		t.Fatalf("valid unterminated tail: events %d, err %v", len(events), err)
	}
}

// FuzzReadEvents: the one log reader never panics on hostile bytes. It
// returns only events that validate, and any failure is a line-numbered
// error or a *TornTailError that keeps the events before the tear.
func FuzzReadEvents(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "events.golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		f.Add(line)
	}
	f.Add(golden[:len(golden)-17]) // a torn tail
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		var torn *TornTailError
		switch {
		case err == nil, errors.As(err, &torn):
		case events != nil:
			t.Fatalf("hard error %v returned %d events", err, len(events))
		case !strings.Contains(err.Error(), "line "):
			t.Fatalf("error %q names no line", err)
		}
		for i := range events {
			if verr := events[i].Validate(); verr != nil {
				t.Fatalf("returned event %d is invalid: %v", i, verr)
			}
		}
		TraceFromEvents(events)
	})
}

func TestReadEventsSkipsBlankLines(t *testing.T) {
	in := `{"type":"iter","rank":0,"iter":0}` + "\n\n" + `{"type":"iter","rank":0,"iter":1}` + "\n"
	events, err := ReadEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize(goldenEvents())
	if err != nil {
		t.Fatal(err)
	}
	if s.Ranks != 2 || s.Iterations != 2 || s.Events != 7 {
		t.Fatalf("ranks/iterations/events = %d/%d/%d, want 2/2/7 (span lines are not counted)", s.Ranks, s.Iterations, s.Events)
	}
	// update_phi: rank 0 mean 1.5, rank 1 mean 1.25 → max 1.5.
	if got := s.StageMSPerIter["update_phi"]; got != 1.5 {
		t.Errorf("update_phi ms/iter = %v, want 1.5", got)
	}
	// update_pi: rank 0 mean 0.25, rank 1 mean 0.5 → max 0.5.
	if got := s.StageMSPerIter["update_pi"]; got != 0.5 {
		t.Errorf("update_pi ms/iter = %v, want 0.5", got)
	}
	if s.DKV.RemoteKeys != 58 || s.DKV.BytesWritten != 992 {
		t.Errorf("summed DKV = %+v", s.DKV)
	}
	if s.FinalPerplexity != 42.5 {
		t.Errorf("final perplexity = %v, want 42.5", s.FinalPerplexity)
	}
}

// TestSummarizeZeroIterations: a stream truncated to its run_start — a run
// that crashed before iteration 0 finished — is legal and yields an empty
// Summary rather than an error.
func TestSummarizeZeroIterations(t *testing.T) {
	s, err := Summarize([]Event{{Type: EventRunStart, Rank: 0, Ranks: 4, Iterations: 100}})
	if err != nil {
		t.Fatalf("Summarize(run_start only) = %v", err)
	}
	if s.Ranks != 4 || s.Iterations != 0 || s.Events != 1 {
		t.Fatalf("summary = %+v, want 4 ranks, 0 iterations, 1 event", s)
	}
	if s, err = Summarize(nil); err != nil || s.Iterations != 0 {
		t.Fatalf("Summarize(nil) = %+v, %v", s, err)
	}
}

// TestSummarizePeerWait: per-peer wait deltas on iter events fold into the
// imposed-wait totals (diagonal excluded) and the straggler rule flags the
// slow peer.
func TestSummarizePeerWait(t *testing.T) {
	events := []Event{
		{Type: EventRunStart, Rank: 0, Ranks: 2, Iterations: 2},
		{Type: EventIter, Rank: 0, Iter: 0, PeerWaitMS: map[int]float64{0: 99, 1: 20}},
		{Type: EventIter, Rank: 1, Iter: 0, PeerWaitMS: map[int]float64{0: 0.5}},
		{Type: EventIter, Rank: 0, Iter: 1, PeerWaitMS: map[int]float64{1: 22}},
		{Type: EventIter, Rank: 1, Iter: 1, PeerWaitMS: map[int]float64{0: 0.5}},
	}
	s, err := Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0's wait on itself (the 99) is the diagonal: excluded.
	if got := s.PeerWaitMS[0]; got != 1 {
		t.Errorf("PeerWaitMS[0] = %v, want 1", got)
	}
	if got := s.PeerWaitMS[1]; got != 42 {
		t.Errorf("PeerWaitMS[1] = %v, want 42", got)
	}
	if s.PeerSkew != 42 {
		t.Errorf("PeerSkew = %v, want 42 (max 42 over floor-clamped median 1)", s.PeerSkew)
	}
	if len(s.Stragglers) != 1 || s.Stragglers[0] != 1 {
		t.Errorf("Stragglers = %v, want [1]", s.Stragglers)
	}
}

// TestSummarizeStageSkew: per-stage cross-rank skew names the slow rank;
// master-only stages (one reporter) are skipped.
func TestSummarizeStageSkew(t *testing.T) {
	events := []Event{
		{Type: EventIter, Rank: 0, Iter: 0, StagesMS: map[string]float64{"update_phi": 10, "draw_minibatch": 3}},
		{Type: EventIter, Rank: 1, Iter: 0, StagesMS: map[string]float64{"update_phi": 40}},
	}
	s, err := Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	sk, ok := s.StageSkew["update_phi"]
	if !ok {
		t.Fatalf("no StageSkew for update_phi: %+v", s.StageSkew)
	}
	if sk.MaxMS != 40 || sk.MedianMS != 10 || sk.Skew != 4 || sk.SlowRank != 1 {
		t.Fatalf("update_phi skew = %+v, want max 40 / median 10 / skew 4 / rank 1", sk)
	}
	if _, ok := s.StageSkew["draw_minibatch"]; ok {
		t.Fatal("single-reporter stage draw_minibatch must not get a skew entry")
	}
}

// TestSummarizeRestartStream: a run resumed from a checkpoint emits iter
// events starting at the restart iteration, not 0 — the stream is legal and
// the summary reports the base. Rebalance events fold into the counters.
func TestSummarizeRestartStream(t *testing.T) {
	events := []Event{
		{Type: EventRunStart, Rank: 0, Ranks: 2, Iterations: 8},
		{Type: EventIter, Rank: 0, Iter: 4},
		{Type: EventIter, Rank: 1, Iter: 4},
		{Type: EventRebalance, Rank: 0, Iter: 4, Weights: []float64{1, 0.75}, Flagged: []int{1}},
		{Type: EventIter, Rank: 0, Iter: 5},
		{Type: EventIter, Rank: 1, Iter: 5},
		{Type: EventRebalance, Rank: 0, Iter: 5, Weights: []float64{1, 0.5}, Flagged: []int{1}},
		{Type: EventRunEnd, Rank: 0, Iter: 6, ElapsedMS: 10},
	}
	s, err := Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if s.StartIter != 4 || s.Iterations != 2 {
		t.Fatalf("start/iterations = %d/%d, want 4/2", s.StartIter, s.Iterations)
	}
	if s.Rebalances != 2 {
		t.Fatalf("Rebalances = %d, want 2", s.Rebalances)
	}
	if !reflect.DeepEqual(s.FinalWeights, []float64{1, 0.5}) {
		t.Fatalf("FinalWeights = %v, want [1 0.5]", s.FinalWeights)
	}

	// Ranks whose streams start at different bases are still rejected.
	if _, err := Summarize([]Event{
		{Type: EventIter, Rank: 0, Iter: 4},
		{Type: EventIter, Rank: 1, Iter: 0},
		{Type: EventIter, Rank: 0, Iter: 5},
		{Type: EventIter, Rank: 1, Iter: 1},
	}); err == nil {
		t.Fatal("Summarize accepted ranks with mismatched start iterations")
	}
}

func TestSummarizeRejectsGappyIters(t *testing.T) {
	events := []Event{
		{Type: EventIter, Rank: 0, Iter: 0},
		{Type: EventIter, Rank: 0, Iter: 2}, // gap
	}
	if _, err := Summarize(events); err == nil {
		t.Fatal("Summarize accepted non-consecutive iteration numbers")
	}
}

func TestSummarizeRejectsUnevenRanks(t *testing.T) {
	events := []Event{
		{Type: EventIter, Rank: 0, Iter: 0},
		{Type: EventIter, Rank: 0, Iter: 1},
		{Type: EventIter, Rank: 1, Iter: 0},
	}
	if _, err := Summarize(events); err == nil {
		t.Fatal("Summarize accepted ranks with different iteration counts")
	}
}
