package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("dkv.requests")
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if reg.Counter("dkv.requests") != c {
		t.Fatal("Counter is not get-or-create stable")
	}
	g := reg.Gauge("run.perplexity")
	g.Set(123.5)
	if got := g.Load(); got != 123.5 {
		t.Fatalf("gauge = %v, want 123.5", got)
	}

	snap := reg.Snapshot()
	if snap.Counters["dkv.requests"] != 4 || snap.Gauges["run.perplexity"] != 123.5 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
}

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},       // 1024µs > 1ms? 2^10 = 1024µs >= 1000µs
		{time.Hour, HistBuckets - 1}, // overflow clamps
	}
	for _, c := range cases {
		if got := histBucket(c.d); got != c.want {
			t.Errorf("histBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations (~2µs, bucket 1) and 10 slow (~1ms, bucket 10).
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.P50MS != histUpperMS(1) {
		t.Errorf("p50 = %v, want %v (fast bucket)", s.P50MS, histUpperMS(1))
	}
	if s.P95MS != histUpperMS(10) || s.P99MS != histUpperMS(10) {
		t.Errorf("p95/p99 = %v/%v, want %v (slow bucket)", s.P95MS, s.P99MS, histUpperMS(10))
	}
}

func TestSnapshotFold(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("dkv.requests").Add(5)
	r2.Counter("dkv.requests").Add(7)
	r1.Gauge("run.iteration").Set(10)
	r2.Gauge("run.iteration").Set(12)
	r1.Histogram("stage.update_phi").Observe(2 * time.Microsecond)
	r2.Histogram("stage.update_phi").Observe(time.Millisecond)

	folded := r1.Snapshot()
	folded.Fold(r2.Snapshot())
	if folded.Counters["dkv.requests"] != 12 {
		t.Errorf("folded counter = %d, want 12 (sum)", folded.Counters["dkv.requests"])
	}
	if folded.Gauges["run.iteration"] != 12 {
		t.Errorf("folded gauge = %v, want 12 (max)", folded.Gauges["run.iteration"])
	}
	h := folded.Histograms["stage.update_phi"]
	if h.Count != 2 {
		t.Errorf("folded histogram count = %d, want 2", h.Count)
	}
	if h.P99MS != histUpperMS(10) {
		t.Errorf("folded p99 = %v, want %v", h.P99MS, histUpperMS(10))
	}
}

func TestCounterValuesPrefix(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dkv.requests").Add(1)
	reg.Counter("transport.msgs_sent").Add(2)
	reg.Counter("other.thing").Add(3)
	got := reg.CounterValues("dkv.", "transport.")
	if len(got) != 2 || got["dkv.requests"] != 1 || got["transport.msgs_sent"] != 2 {
		t.Fatalf("CounterValues = %v", got)
	}
	if all := reg.CounterValues(); len(all) != 3 {
		t.Fatalf("CounterValues() = %v, want all 3", all)
	}
}
