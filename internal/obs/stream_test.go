package obs

import (
	"fmt"
	"testing"
)

func publishN(s *Stream, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.Publish([]byte(fmt.Sprintf("ev%d", i)))
	}
}

func TestStreamIDsAndReplay(t *testing.T) {
	s := NewStream(8)
	publishN(s, 0, 3)
	all := s.Since(0)
	if len(all) != 3 {
		t.Fatalf("Since(0) returned %d events, want 3", len(all))
	}
	for i, ev := range all {
		if ev.ID != uint64(i+1) {
			t.Fatalf("event %d has id %d, want %d", i, ev.ID, i+1)
		}
		if string(ev.Data) != fmt.Sprintf("ev%d", i) {
			t.Fatalf("event %d data = %q", i, ev.Data)
		}
	}
	tail := s.Since(2)
	if len(tail) != 1 || tail[0].ID != 3 {
		t.Fatalf("Since(2) = %+v, want just id 3", tail)
	}
}

// TestStreamRingEviction pins the bounded-buffer contract: once more events
// than the capacity have been published, replay returns only the newest
// window, oldest first, and the id sequence shows the gap.
func TestStreamRingEviction(t *testing.T) {
	s := NewStream(4)
	publishN(s, 0, 10) // ids 1..10; ring holds 7..10
	got := s.Since(0)
	if len(got) != 4 {
		t.Fatalf("Since(0) after overflow returned %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := uint64(7 + i); ev.ID != want {
			t.Fatalf("replay position %d has id %d, want %d (oldest-first window)", i, ev.ID, want)
		}
	}
	// A resume point inside the lost range still returns the whole window.
	if got := s.Since(3); len(got) != 4 {
		t.Fatalf("Since(3) returned %d events, want the full window of 4", len(got))
	}
}

// TestStreamSubscribeFromAtomicity: the backlog plus the live channel must
// cover every event with no duplicates, even when events are published
// between replay and first receive.
func TestStreamSubscribeFrom(t *testing.T) {
	s := NewStream(16)
	publishN(s, 0, 5)
	backlog, sub, cancel := s.SubscribeFrom(2, 8)
	defer cancel()
	if len(backlog) != 3 {
		t.Fatalf("backlog after id 2 has %d events, want 3", len(backlog))
	}
	publishN(s, 5, 7)
	var live []StreamEvent
	for i := 0; i < 2; i++ {
		live = append(live, <-sub.C)
	}
	seen := map[uint64]bool{}
	for _, ev := range append(backlog, live...) {
		if seen[ev.ID] {
			t.Fatalf("event id %d delivered twice", ev.ID)
		}
		seen[ev.ID] = true
	}
	for id := uint64(3); id <= 7; id++ {
		if !seen[id] {
			t.Fatalf("event id %d never delivered", id)
		}
	}
}

// TestStreamSlowSubscriberDrops pins the non-blocking drop policy: a full
// subscriber channel loses events (counted) instead of stalling Publish.
func TestStreamSlowSubscriberDrops(t *testing.T) {
	s := NewStream(16)
	drops := NewRegistry().Counter(CtrEventsDropped)
	s.SetDropCounter(drops)
	_, sub, cancel := s.SubscribeFrom(0, 2)
	defer cancel()
	publishN(s, 0, 6) // channel holds 2, the other 4 drop
	if got := drops.Load(); got != 4 {
		t.Fatalf("%d drops counted, want 4", got)
	}
	first := <-sub.C
	if first.ID != 1 {
		t.Fatalf("first delivered id = %d, want 1", first.ID)
	}
	// The dropped range is still replayable from the ring.
	if got := s.Since(2); len(got) != 4 {
		t.Fatalf("Since(2) returned %d events, want the 4 dropped ones", len(got))
	}
}

// TestStreamDropAccounting pins the registry drop counter
// (obs.events_dropped): the subscriber that lost the events is gone, but
// /metrics remembers the loss.
func TestStreamDropAccounting(t *testing.T) {
	reg := NewRegistry()
	s := NewStream(16)
	s.SetDropCounter(reg.Counter(CtrEventsDropped))
	_, _, cancel := s.SubscribeFrom(0, 2)
	publishN(s, 0, 6)
	cancel() // the subscriber is gone; the total must survive it
	if got := reg.Counter(CtrEventsDropped).Load(); got != 4 {
		t.Fatalf("registry %s = %d, want 4", CtrEventsDropped, got)
	}
}

func TestStreamCancelUnsubscribes(t *testing.T) {
	s := NewStream(8)
	_, sub, cancel := s.SubscribeFrom(0, 4)
	cancel()
	s.Publish([]byte("after"))
	select {
	case ev := <-sub.C:
		t.Fatalf("cancelled subscriber received %+v", ev)
	default:
	}
}
