package obs

import "sync"

// DefaultStreamCapacity is the ring-buffer depth of a Stream: how many of
// the most recent events a late or resuming SSE client can still replay.
const DefaultStreamCapacity = 1024

// StreamEvent is one buffered event: the marshalled JSON line (no trailing
// newline) plus its monotonically increasing id, which doubles as the SSE
// `id:` field so clients resume with Last-Event-ID.
type StreamEvent struct {
	ID   uint64
	Data []byte
}

// Stream is the live fan-out behind the monitor's /events endpoint: a
// bounded ring buffer of the most recent events plus a set of subscribers.
// The event sink tees every emitted line into it (Sink.Tee), so SSE clients
// see exactly the JSONL the file sink receives.
//
// Delivery is lossy by design — Publish never blocks the training run. A
// subscriber whose channel is full has the event dropped (the drop counter
// grows); because every frame carries its id, a client detects the gap and
// re-requests the missed range with Last-Event-ID, which replays from the
// ring buffer as long as the events are still inside the capacity window.
type Stream struct {
	mu      sync.Mutex
	cap     int
	buf     []StreamEvent // ring, ordered oldest→newest once rotated
	head    int           // next write position in buf
	next    uint64        // id assigned to the next published event (ids start at 1)
	subs    map[*Subscriber]struct{}
	dropCtr *Counter // optional: fan-out drops (canonically CtrEventsDropped)
}

// Subscriber is one /events client's queue.
type Subscriber struct {
	C chan StreamEvent
}

// NewStream creates a stream buffering the last capacity events (<= 0 uses
// DefaultStreamCapacity).
func NewStream(capacity int) *Stream {
	if capacity <= 0 {
		capacity = DefaultStreamCapacity
	}
	return &Stream{
		cap:  capacity,
		buf:  make([]StreamEvent, 0, capacity),
		next: 1,
		subs: map[*Subscriber]struct{}{},
	}
}

// Publish appends one marshalled event line to the ring and fans it out to
// every subscriber without blocking; it returns the event's id. The data is
// retained, so callers must not reuse the slice.
func (s *Stream) Publish(data []byte) uint64 {
	s.mu.Lock()
	ev := StreamEvent{ID: s.next, Data: data}
	s.next++
	if len(s.buf) < s.cap {
		s.buf = append(s.buf, ev)
	} else {
		s.buf[s.head] = ev
	}
	s.head = (s.head + 1) % s.cap
	for sub := range s.subs {
		select {
		case sub.C <- ev:
		default: // slow client: drop, the id gap tells it to resume
			if s.dropCtr != nil {
				s.dropCtr.Inc()
			}
		}
	}
	s.mu.Unlock()
	return ev.ID
}

// SetDropCounter counts future drops in a registry counter (canonically
// CtrEventsDropped), so /metrics surfaces them.
func (s *Stream) SetDropCounter(c *Counter) {
	s.mu.Lock()
	s.dropCtr = c
	s.mu.Unlock()
}

// Since returns the buffered events with id > after, oldest first. An
// `after` older than the ring's window returns everything still buffered —
// the client's id gap shows how much history was lost.
func (s *Stream) Since(after uint64) []StreamEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sinceLocked(after)
}

func (s *Stream) sinceLocked(after uint64) []StreamEvent {
	n := len(s.buf)
	if n == 0 {
		return nil
	}
	start := 0
	if n == s.cap {
		start = s.head // oldest entry once the ring has rotated
	}
	out := make([]StreamEvent, 0, n)
	for i := 0; i < n; i++ {
		ev := s.buf[(start+i)%n]
		if ev.ID > after {
			out = append(out, ev)
		}
	}
	return out
}

// SubscribeFrom atomically registers a new subscriber and returns the
// backlog of buffered events with id > after, so no event published between
// the replay and the subscription can be missed. The channel holds up to
// buffer events (<= 0 defaults to 256); cancel unregisters.
func (s *Stream) SubscribeFrom(after uint64, buffer int) (backlog []StreamEvent, sub *Subscriber, cancel func()) {
	if buffer <= 0 {
		buffer = 256
	}
	sub = &Subscriber{C: make(chan StreamEvent, buffer)}
	s.mu.Lock()
	backlog = s.sinceLocked(after)
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	cancel = func() {
		s.mu.Lock()
		delete(s.subs, sub)
		s.mu.Unlock()
	}
	return backlog, sub, cancel
}
