package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Event types of the JSONL stream.
const (
	EventRunStart   = "run_start"  // once, from rank 0, before iteration 0
	EventIter       = "iter"       // one per iteration per rank
	EventPerplexity = "perplexity" // one per evaluation point, from rank 0
	EventRebalance  = "rebalance"  // from rank 0, when a window changes the minibatch shares
	EventRunEnd     = "run_end"    // once, from rank 0, after the last iteration
	EventSpan       = "span"       // one per closed span, from the rank that made it
)

// Canonical counter names. Subsystems register these into the run's
// Registry; the recorder folds the dkv.* and store.* groups into each iter
// event's DKV block as per-iteration deltas.
const (
	CtrDKVLocalKeys    = "dkv.local_keys"
	CtrDKVRemoteKeys   = "dkv.remote_keys"
	CtrDKVRequests     = "dkv.requests"
	CtrDKVBytesRead    = "dkv.bytes_read"
	CtrDKVBytesWritten = "dkv.bytes_written"

	CtrCacheHits          = "store.cache_hits"
	CtrCacheMisses        = "store.cache_misses"
	CtrCacheEvictions     = "store.cache_evictions"
	CtrCacheInvalidations = "store.cache_invalidations"

	// Tiered π store traffic: per read, exactly one tier serves each row —
	// the in-RAM cache (hot_hits) or, past it, the mmap tier (hot_misses).
	CtrTierHotHits   = "store.tier.hot_hits"
	CtrTierHotMisses = "store.tier.hot_misses"

	// Straggler-mitigation counters, maintained at the master by the
	// distributed engine's reshard stage: windows observed, windows that
	// changed the share weights, and total rank-window straggler flags.
	CtrReshardWindows = "engine.reshard.windows"
	CtrReshardChanges = "engine.reshard.changes"
	CtrReshardFlags   = "engine.reshard.flags"

	CtrNetMsgsSent  = "transport.msgs_sent"
	CtrNetBytesSent = "transport.bytes_sent"
	CtrNetMsgsRecv  = "transport.msgs_recv"
	CtrNetBytesRecv = "transport.bytes_recv"
	// CtrNetRecvAnyIdleNS is time parked in RecvAny (the DKV serve loop
	// between requests) — idle, not straggler wait; 1 - idle/elapsed is the
	// serve loop's utilisation.
	CtrNetRecvAnyIdleNS = "transport.recvany_idle_ns"
)

// Canonical gauge names the recorder maintains for the live monitor.
const (
	GaugeIteration  = "run.iteration"
	GaugePerplexity = "run.perplexity"
	GaugeElapsedMS  = "run.elapsed_ms"
)

// DKVCounters is the parameter-store traffic block of an event: counter
// deltas for that iteration on iter events, cumulative totals on run_end.
type DKVCounters struct {
	LocalKeys    int64 `json:"local_keys"`
	RemoteKeys   int64 `json:"remote_keys"`
	Requests     int64 `json:"requests"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	CacheHits    int64 `json:"cache_hits,omitempty"`
	CacheMisses  int64 `json:"cache_misses,omitempty"`
	// CacheEvictions counts rows displaced by the cache bound;
	// CacheInvalidations counts rows dropped because their key was written
	// (or, per-phase mode, blanket-flushed at a barrier).
	CacheEvictions     int64 `json:"cache_evictions,omitempty"`
	CacheInvalidations int64 `json:"cache_invalidations,omitempty"`
}

// dkvFromCounters assembles a DKVCounters block from counter values (a
// registry snapshot or a delta map).
func dkvFromCounters(c map[string]int64) DKVCounters {
	return DKVCounters{
		LocalKeys:          c[CtrDKVLocalKeys],
		RemoteKeys:         c[CtrDKVRemoteKeys],
		Requests:           c[CtrDKVRequests],
		BytesRead:          c[CtrDKVBytesRead],
		BytesWritten:       c[CtrDKVBytesWritten],
		CacheHits:          c[CtrCacheHits],
		CacheMisses:        c[CtrCacheMisses],
		CacheEvictions:     c[CtrCacheEvictions],
		CacheInvalidations: c[CtrCacheInvalidations],
	}
}

// IsZero reports whether every field is zero (the block is omitted then).
func (d DKVCounters) IsZero() bool { return d == DKVCounters{} }

// Event is one JSONL record of the telemetry stream. Which fields are set
// depends on Type:
//
//   - run_start: Rank, Ranks, Iterations
//   - iter:       Rank, Iter (0-based), StagesMS, DKV (deltas), PeerWaitMS
//     (deltas), ElapsedMS
//   - perplexity: Rank, Iter (1-based eval point), Perplexity, ElapsedMS
//   - rebalance:  Rank (= 0), Iter (the iteration whose window closed),
//     Weights (the new share vector), Flagged (ranks the window flagged),
//     PeerWaitMS (the window's imposed-wait vector, keyed by rank)
//   - run_end:    Rank, Iter (= iterations run), DKV (cumulative), ElapsedMS
//   - span:       Rank, Span (its own Iter, -1 off the loop; Span.Rank = Rank)
type Event struct {
	Type       string             `json:"type"`
	Rank       int                `json:"rank"`
	Iter       int                `json:"iter,omitempty"`
	Ranks      int                `json:"ranks,omitempty"`
	Iterations int                `json:"iterations,omitempty"`
	StagesMS   map[string]float64 `json:"stages_ms,omitempty"`
	DKV        *DKVCounters       `json:"dkv,omitempty"`
	// PeerWaitMS, on iter events, is the time this rank spent blocked in
	// targeted receives per sending peer during this iteration (the per-peer
	// recv_wait_ns counter deltas) — the event-stream form of the straggler
	// signal. Keys are peer ranks.
	PeerWaitMS map[int]float64 `json:"peer_wait_ms,omitempty"`
	// Weights and Flagged are set on rebalance events: the minibatch share
	// vector the next window runs with, and the ranks this window's
	// straggler rule flagged.
	Weights    []float64 `json:"weights,omitempty"`
	Flagged    []int     `json:"flagged,omitempty"`
	Perplexity float64   `json:"perplexity,omitempty"`
	ElapsedMS  float64   `json:"elapsed_ms,omitempty"`
	Span       *Span     `json:"span,omitempty"`
}

// Validate checks the schema invariants a well-formed stream satisfies.
func (e *Event) Validate() error {
	switch e.Type {
	case EventRunStart, EventIter, EventPerplexity, EventRebalance, EventRunEnd:
	case EventSpan:
		if err := e.Span.validate(e.Rank); err != nil {
			return err
		}
	default:
		return fmt.Errorf("obs: unknown event type %q", e.Type)
	}
	if e.Rank < 0 {
		return fmt.Errorf("obs: %s event with negative rank %d", e.Type, e.Rank)
	}
	if e.Iter < 0 {
		return fmt.Errorf("obs: %s event with negative iter %d", e.Type, e.Iter)
	}
	for name, ms := range e.StagesMS {
		if name == "" {
			return fmt.Errorf("obs: %s event with unnamed stage", e.Type)
		}
		if ms < 0 {
			return fmt.Errorf("obs: %s event: stage %q has negative duration %f", e.Type, name, ms)
		}
	}
	for peer, ms := range e.PeerWaitMS {
		if peer < 0 {
			return fmt.Errorf("obs: %s event with negative peer rank %d", e.Type, peer)
		}
		if ms < 0 {
			return fmt.Errorf("obs: %s event: peer %d has negative wait %f", e.Type, peer, ms)
		}
	}
	for r, w := range e.Weights {
		if w < 0 || w > 1 {
			return fmt.Errorf("obs: %s event: rank %d weight %f outside [0,1]", e.Type, r, w)
		}
	}
	for _, p := range e.Flagged {
		if p < 0 {
			return fmt.Errorf("obs: %s event flags negative rank %d", e.Type, p)
		}
		if len(e.Weights) > 0 && p >= len(e.Weights) {
			return fmt.Errorf("obs: %s event flags rank %d outside the %d-rank weight vector", e.Type, p, len(e.Weights))
		}
	}
	if e.Type == EventRebalance && len(e.Weights) == 0 {
		return fmt.Errorf("obs: rebalance event at iter %d without weights", e.Iter)
	}
	if e.Type == EventPerplexity && e.Perplexity <= 0 {
		return fmt.Errorf("obs: perplexity event at iter %d with non-positive value %f", e.Iter, e.Perplexity)
	}
	if e.ElapsedMS < 0 {
		return fmt.Errorf("obs: %s event with negative elapsed %f", e.Type, e.ElapsedMS)
	}
	return nil
}

// validate checks a span event's payload: sp is the event's span, rank the
// event's rank.
func (sp *Span) validate(rank int) error {
	switch {
	case sp == nil:
		return fmt.Errorf("obs: span event without a span")
	case sp.Name == "":
		return fmt.Errorf("obs: span event with unnamed span")
	case sp.StartNS < 0 || sp.DurNS < 0:
		return fmt.Errorf("obs: span %q with negative start %d or duration %d", sp.Name, sp.StartNS, sp.DurNS)
	case sp.Rank != rank:
		return fmt.Errorf("obs: span %q of rank %d in a rank %d event", sp.Name, sp.Rank, rank)
	}
	switch sp.Cat {
	case CatIter, CatStage, CatCollective, CatRecv, CatDKVWait, CatDKVServe:
		return nil
	}
	return fmt.Errorf("obs: span %q with unknown category %q", sp.Name, sp.Cat)
}

// Sink serialises events as JSON lines onto a writer. Emit is safe for
// concurrent use — in a distributed run every rank's recorder shares one
// sink — and each event is exactly one '\n'-terminated line.
type Sink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // set by NewFileSink; nil otherwise
	tee *Stream   // set by Tee; every emitted line is also published here
}

// NewSink wraps a writer. The caller keeps ownership of w; Close only
// flushes buffered lines.
func NewSink(w io.Writer) *Sink {
	return &Sink{w: bufio.NewWriter(w)}
}

// NewFileSink wraps a writer the sink owns: Close flushes and closes it.
func NewFileSink(w io.WriteCloser) *Sink {
	return &Sink{w: bufio.NewWriter(w), c: w}
}

// Tee publishes every subsequently emitted line to st as well — the hookup
// between a run's event sink and the monitor's live /events SSE endpoint,
// which thereby streams exactly the JSONL the file sink receives.
func (s *Sink) Tee(st *Stream) {
	s.mu.Lock()
	s.tee = st
	s.mu.Unlock()
}

// Emit writes one event as a single JSON line.
func (s *Sink) Emit(e *Event) error {
	buf, err := json.Marshal(e)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tee != nil {
		s.tee.Publish(buf)
	}
	if _, err := s.w.Write(buf); err != nil {
		return err
	}
	return s.w.WriteByte('\n')
}

// Close flushes buffered lines and closes the underlying writer when the
// sink owns it (NewFileSink).
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// TornTailError reports that the final line of a stream was cut off
// mid-record — no trailing newline and not decodable — which is the normal
// shape of a crashed run's event file (the sink died mid-write). ReadEvents
// returns it alongside every event before the tear, so callers can degrade
// it to a warning instead of discarding an otherwise-valid stream.
type TornTailError struct {
	Line int   // 1-based line number of the torn record
	Err  error // the decode or validation failure on the partial line
}

// Error implements error.
func (e *TornTailError) Error() string {
	return fmt.Sprintf("obs: line %d: stream ends mid-record (torn tail): %v", e.Line, e.Err)
}

// Unwrap exposes the underlying decode failure.
func (e *TornTailError) Unwrap() error { return e.Err }

// ReadEvents decodes a JSONL stream, validating every event. Blank lines are
// skipped; the first malformed or invalid newline-terminated line fails the
// read with its line number. A final line without a trailing newline that
// fails to decode is a torn tail: the events before it are returned together
// with a *TornTailError (check with errors.As) so consumers can digest a
// crashed run's file with a warning rather than a hard failure.
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var events []Event
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, err
		}
		atEOF := err == io.EOF
		terminated := !atEOF
		raw = bytes.TrimSuffix(raw, []byte("\n"))
		if len(raw) > 0 {
			line++
			var e Event
			decodeErr := json.Unmarshal(raw, &e)
			if decodeErr == nil {
				decodeErr = e.Validate()
			}
			switch {
			case decodeErr == nil:
				events = append(events, e)
			case !terminated:
				return events, &TornTailError{Line: line, Err: decodeErr}
			default:
				return nil, fmt.Errorf("obs: line %d: %w", line, decodeErr)
			}
		}
		if atEOF {
			return events, nil
		}
	}
}
