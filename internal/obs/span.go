package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: the causal-timeline layer of the telemetry stack. Where the
// RunRecorder aggregates (per-stage totals, counter deltas), the Tracer
// records individual intervals — every engine stage, every collective, every
// DKV round trip — with parent ids so the timeline nests, and with the peer
// rank on anything that crossed the wire so waits are attributable. A run
// that writes a JSONL log streams each span into it as one "span" event, from
// the rank that made it, the moment it closes (StreamTo); a run without a log
// buffers them per rank with a hard bound (tracing must never grow without
// limit) for the caller to read back with Bundle. Either form renders as
// Chrome trace-event JSON for Perfetto / chrome://tracing.
//
// The clock is a process-wide monotonic epoch: every rank of a run lives in
// this process (the in-proc fabric and the TCP loopback mesh alike), so span
// timestamps are directly comparable across ranks without clock-sync
// machinery. A future multi-process transport would need to exchange epoch
// offsets at connect time; every span already carries its rank, so only the
// clock needs revisiting.
//
// Like the RunRecorder, the Tracer is nil-gated: every hook site pays one
// nil-check when tracing is off, and the trained trajectory is bit-identical
// with tracing on or off (spans only observe, never synchronize).

// Span categories. The critical-path analyzer keys off these.
const (
	CatIter       = "iter"       // one per iteration per rank, parents the stages
	CatStage      = "stage"      // engine stage (Table III phase names)
	CatCollective = "collective" // cluster.Comm Barrier/Bcast/Gather/Scatter
	CatRecv       = "recv"       // one blocking receive inside a collective, Peer = sender
	CatDKVWait    = "dkv_wait"   // client blocked on a DKV response, Peer = serving rank
	CatDKVServe   = "dkv_serve"  // server-side request handling, Peer = REQUESTING rank
)

// Track ids: the Chrome trace "tid" each span renders under. Spans on one
// track must nest by time (Perfetto draws same-tid overlaps as nesting), so
// concurrent subsystems get their own lane.
const (
	TrackEngine    = 0 // engine loop: iter > stage > collective > recv
	TrackDKVClient = 1 // DKV client reply waits (the pipelined loader goroutine too)
	TrackDKVServer = 2 // DKV server request loop
)

// NoPeer marks a span with no wire peer (stages, iterations).
const NoPeer = -1

// CtrEventsDropped counts the lines the live /events fan-out dropped because
// a subscriber's queue was full, so /metrics can report that a client's view
// of the stream is incomplete.
const CtrEventsDropped = "obs.events_dropped"

// traceEpoch anchors every Tracer's clock: TraceNow is monotonic nanoseconds
// since process start, identical across ranks because they share the process.
var traceEpoch = time.Now()

// TraceNow returns the current trace timestamp (monotonic ns since the
// process-wide epoch). Usable without a Tracer — the DKV client stamps its
// request headers with it unconditionally so servers can compute queue wait.
func TraceNow() int64 { return int64(time.Since(traceEpoch)) }

// SpanID identifies a span within one rank's tracer; 0 means "no span"
// (a root's Parent, or an unset scope).
type SpanID uint64

// Span is one closed interval on a rank's timeline.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Name   string `json:"name"`
	Cat    string `json:"cat"`
	Rank   int    `json:"rank"`
	Track  int    `json:"track"`
	// Peer is the other rank of a wire interval: the sender for recv spans,
	// the serving rank for dkv_wait, the REQUESTING rank for dkv_serve (that
	// inversion is the point — server-side time is attributed to whoever
	// asked). NoPeer for purely local spans.
	Peer int `json:"peer"`
	// Iter is the iteration the span belongs to; -1 when unknown (the DKV
	// server loop serves requests without iteration context).
	Iter int `json:"iter"`
	// Tag is the collective tag or DKV request id, for cross-rank
	// correlation of the two ends of one exchange.
	Tag     uint32 `json:"tag,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// End returns the span's end timestamp.
func (s Span) End() int64 { return s.StartNS + s.DurNS }

// DefaultTraceCapacity bounds a Tracer's span buffer. 2^17 spans × ~112
// bytes ≈ 14 MB per rank worst case; a long unlogged run overflows the bound
// and counts drops rather than growing. A streaming tracer has no buffer.
const DefaultTraceCapacity = 1 << 17

// Tracer is one rank's span recorder. Emit is safe for concurrent use (the
// engine goroutine, the pipelined loader, and the DKV server goroutine all
// emit); the scope and iteration registers are atomics so the concurrent
// emitters can parent themselves under the engine's current stage without
// locking.
type Tracer struct {
	rank int
	cap  int

	nextID atomic.Uint64
	scope  atomic.Uint64 // current parent SpanID for new child spans
	iter   atomic.Int64  // current iteration, -1 before the first

	mu        sync.Mutex
	spans     []Span
	dropped   int64 // spans the bound discarded
	streaming bool  // set by StreamTo: spans go to log, not to spans
	log       *Sink // nil once the timeline has ended
}

// NewTracer creates a tracer for one rank buffering at most capacity spans
// (<= 0 uses DefaultTraceCapacity).
func NewTracer(rank, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{rank: rank, cap: capacity}
	t.iter.Store(-1)
	return t
}

// Now returns the current trace timestamp.
func (t *Tracer) Now() int64 { return TraceNow() }

// NewID allocates the next span id (ids start at 1; 0 is "no span").
func (t *Tracer) NewID() SpanID { return SpanID(t.nextID.Add(1)) }

// SetScope makes id the parent for subsequently emitted child spans and
// returns the previous scope, so callers restore it when their span closes.
func (t *Tracer) SetScope(id SpanID) SpanID { return SpanID(t.scope.Swap(uint64(id))) }

// Scope returns the current parent span id (0 when outside any span).
func (t *Tracer) Scope() SpanID { return SpanID(t.scope.Load()) }

// SetIter labels subsequently emitted spans with the running iteration.
func (t *Tracer) SetIter(i int) { t.iter.Store(int64(i)) }

// Iter returns the current iteration label (-1 before the first).
func (t *Tracer) Iter() int { return int(t.iter.Load()) }

// StreamTo makes the tracer write every later span into the run log as one
// "span" event instead of buffering it. StreamTo(nil) ends the timeline:
// spans after it (the trainer's posterior sampling, the master reading π back
// out of the DKV servers) are not part of the run and are discarded, while
// the spans already buffered stay readable with Bundle. A span being written
// when the timeline ends lands before StreamTo returns, never after.
func (t *Tracer) StreamTo(log *Sink) {
	t.mu.Lock()
	t.streaming, t.log = true, log
	t.mu.Unlock()
}

// Emit records a closed span, stamping this tracer's rank: into the run log
// when streaming, else into the buffer. When the buffer is full the span is
// dropped and counted — tracing degrades, never grows.
func (t *Tracer) Emit(sp Span) {
	sp.Rank = t.rank
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.streaming:
		if t.log != nil {
			_ = t.log.Emit(&Event{Type: EventSpan, Rank: t.rank, Span: &sp}) // telemetry never fails a run
		}
	case len(t.spans) < t.cap:
		t.spans = append(t.spans, sp)
	default:
		t.dropped++
	}
}

// Bundle snapshots the buffered spans and the drop count: a copy, so the
// tracer may keep recording. A streaming tracer's bundle is empty — its
// spans are in the log.
func (t *Tracer) Bundle() TraceBundle {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceBundle{Rank: t.rank, Dropped: t.dropped, Spans: append([]Span(nil), t.spans...)}
}

// TraceBundle is one rank's spans plus its drop count — the in-memory form
// of a timeline, which the Chrome exporter and the critical-path analyzer
// take: a buffering Tracer's Bundle, or a run log's spans (TraceFromEvents).
type TraceBundle struct {
	Rank    int    `json:"rank"`
	Dropped int64  `json:"dropped"`
	Spans   []Span `json:"spans"`
}

// TraceFromEvents collects the span events of a run log into one bundle per
// rank, rank-ordered, in log order. A streamed log drops nothing, so every
// bundle's Dropped is 0.
func TraceFromEvents(events []Event) []TraceBundle {
	byRank := map[int][]Span{}
	for i := range events {
		if e := &events[i]; e.Type == EventSpan {
			byRank[e.Rank] = append(byRank[e.Rank], *e.Span)
		}
	}
	out := make([]TraceBundle, 0, len(byRank))
	for _, r := range sortedKeys(byRank) {
		out = append(out, TraceBundle{Rank: r, Spans: byRank[r]})
	}
	return out
}
