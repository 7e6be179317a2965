package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

func TestRunRecorderEmitsIterEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	reg := NewRegistry()
	rec := NewRunRecorder(sink, 0, reg)

	rec.RunStart(2, 2)
	reg.Counter(CtrDKVRemoteKeys).Add(30)
	rec.StageDone(0, "update_phi", 2*time.Millisecond)
	rec.StageDone(0, "update_phi", time.Millisecond) // chunked stages accumulate
	rec.StageDone(0, "update_pi", time.Millisecond)
	rec.IterDone(0)
	reg.Counter(CtrDKVRemoteKeys).Add(12)
	rec.StageDone(1, "update_phi", time.Millisecond)
	rec.IterDone(1)
	rec.EvalDone(2, 99.5)
	rec.RunEnd(2)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(events), events)
	}
	if events[0].Type != EventRunStart || events[0].Ranks != 2 {
		t.Errorf("run_start = %+v", events[0])
	}
	it0 := events[1]
	if it0.Type != EventIter || it0.Iter != 0 || it0.Rank != 0 {
		t.Fatalf("iter 0 event = %+v", it0)
	}
	if got := it0.StagesMS["update_phi"]; got < 3 {
		t.Errorf("update_phi ms = %v, want >= 3 (accumulated)", got)
	}
	if it0.DKV == nil || it0.DKV.RemoteKeys != 30 {
		t.Errorf("iter 0 DKV = %+v, want remote_keys 30", it0.DKV)
	}
	it1 := events[2]
	if it1.DKV == nil || it1.DKV.RemoteKeys != 12 {
		t.Errorf("iter 1 DKV = %+v, want delta 12", it1.DKV)
	}
	if _, ok := it1.StagesMS["update_pi"]; ok {
		t.Error("iter 1 carries iter 0's update_pi stage — stages not cleared")
	}
	if events[3].Type != EventPerplexity || events[3].Perplexity != 99.5 {
		t.Errorf("perplexity event = %+v", events[3])
	}
	if events[4].Type != EventRunEnd || events[4].DKV == nil || events[4].DKV.RemoteKeys != 42 {
		t.Errorf("run_end = %+v, want cumulative remote_keys 42", events[4])
	}

	// The monitor gauges reflect the run's progress.
	if got := reg.Gauge(GaugeIteration).Load(); got != 2 {
		t.Errorf("iteration gauge = %v, want 2", got)
	}
	if got := reg.Gauge(GaugePerplexity).Load(); got != 99.5 {
		t.Errorf("perplexity gauge = %v, want 99.5", got)
	}
	// Stage latencies feed histograms.
	if got := reg.Histogram("stage.update_phi").Snapshot().Count; got != 3 {
		t.Errorf("stage.update_phi histogram count = %d, want 3", got)
	}
}

// TestRunStartTakesTheBaseline pins where a rank's first iteration starts
// counting: at RunStart, which every rank calls when its loop starts.
// Traffic before it (a restart's streaming) is in no iter event, only in
// run_end's cumulative block, and only rank 0 announces the run.
func TestRunStartTakesTheBaseline(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	reg := NewRegistry()
	rec := NewRunRecorder(sink, 1, reg)
	reg.Counter(CtrDKVRequests).Add(100) // start-up traffic
	rec.RunStart(2, 1)
	reg.Counter(CtrDKVRequests).Add(3)
	rec.IterDone(0)
	rec.RunEnd(1)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Type != EventIter || events[0].Rank != 1 || events[1].Type != EventRunEnd {
		t.Fatalf("rank 1 wrote %+v; want one iter event and run_end", events)
	}
	if got := events[0].DKV.Requests; got != 3 {
		t.Errorf("iter 0 carries %d DKV requests, want the loop's 3", got)
	}
	if got := events[1].DKV.Requests; got != 103 {
		t.Errorf("run_end carries %d DKV requests, want the cumulative 103", got)
	}
}

func TestRunRecorderNilSinkAndRegistry(t *testing.T) {
	// Monitor-only (nil sink) and event-only (nil registry) recorders must
	// both be usable without panics.
	reg := NewRegistry()
	rec := NewRunRecorder(nil, 0, reg)
	rec.StageDone(0, "update_phi", time.Millisecond)
	rec.IterDone(0)
	if got := reg.Gauge(GaugeIteration).Load(); got != 1 {
		t.Errorf("iteration gauge = %v, want 1", got)
	}

	var buf bytes.Buffer
	rec2 := NewRunRecorder(NewSink(&buf), 0, nil)
	rec2.StageDone(0, "update_phi", time.Millisecond)
	rec2.IterDone(0)
	rec2.RunEnd(1)
}

func TestMonitorServesRegistry(t *testing.T) {
	mon := NewMonitor("127.0.0.1:0")
	addr, err := mon.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	get := func() map[string]any {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("monitor response is not JSON: %v\n%s", err, body)
		}
		return doc
	}

	if doc := get(); doc["status"] != "waiting" {
		t.Errorf("pre-attach response = %v, want waiting status", doc)
	}

	reg := NewRegistry()
	reg.Counter(CtrDKVRequests).Add(7)
	reg.Gauge(GaugeIteration).Set(3)
	mon.Attach(reg)

	doc := get()
	counters, _ := doc["counters"].(map[string]any)
	if counters[CtrDKVRequests] != float64(7) {
		t.Errorf("monitor counters = %v, want %s=7", counters, CtrDKVRequests)
	}
	gauges, _ := doc["gauges"].(map[string]any)
	if gauges[GaugeIteration] != float64(3) {
		t.Errorf("monitor gauges = %v, want %s=3", gauges, GaugeIteration)
	}
}
