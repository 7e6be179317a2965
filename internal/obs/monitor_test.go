package obs

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func startMonitor(t *testing.T) (*Monitor, string) {
	t.Helper()
	m := NewMonitor("127.0.0.1:0")
	addr, err := m.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, addr
}

// TestMonitorRouteTable pins the explicit route set: /, /metrics and /events
// answer; every other path — including the catch-all-shaped /favicon.ico, the
// typo'd /metric and /trace (spans ride /events) — is a 404.
func TestMonitorRouteTable(t *testing.T) {
	m, addr := startMonitor(t)
	reg := NewRegistry()
	reg.Counter("test.counter").Add(7)
	m.Attach(reg)

	client := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/", "/metrics"} {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q, want application/json", path, ct)
		}
		resp.Body.Close()
	}
	for _, path := range []string{"/favicon.ico", "/metric", "/events/extra", "/trace", "/debug/pprof/"} {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// readSSEFrames reads frames ("\n\n"-separated blocks) from an open SSE body.
func readSSEFrames(t *testing.T, br *bufio.Reader, n int) []string {
	t.Helper()
	var frames []string
	var cur strings.Builder
	for len(frames) < n {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE body ended early (%v) after %d frames: %q", err, len(frames), frames)
		}
		if line == "\n" {
			frames = append(frames, cur.String())
			cur.Reset()
			continue
		}
		cur.WriteString(line)
	}
	return frames
}

// TestMonitorEventsSSE covers the /events handshake, live delivery, and
// Last-Event-ID resume.
func TestMonitorEventsSSE(t *testing.T) {
	m, addr := startMonitor(t)
	stream := m.EventStream()
	stream.Publish([]byte(`{"type":"iter","rank":0,"iter":0}`))
	stream.Publish([]byte(`{"type":"iter","rank":1,"iter":0}`))

	client := &http.Client{} // no timeout: the stream stays open
	resp, err := client.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /events = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	br := bufio.NewReader(resp.Body)
	// Handshake comment, then the two buffered events replayed.
	frames := readSSEFrames(t, br, 3)
	if !strings.HasPrefix(frames[0], ":") {
		t.Fatalf("first frame is not the handshake comment: %q", frames[0])
	}
	for i, want := range []string{"id: 1\n", "id: 2\n"} {
		if !strings.HasPrefix(frames[i+1], want) {
			t.Fatalf("replay frame %d = %q, want prefix %q", i, frames[i+1], want)
		}
		if !strings.Contains(frames[i+1], `data: {"type":"iter"`) {
			t.Fatalf("replay frame %d carries no event data: %q", i, frames[i+1])
		}
	}
	// A live publish reaches the open connection.
	stream.Publish([]byte(`{"type":"run_end","rank":0}`))
	live := readSSEFrames(t, br, 1)
	if !strings.HasPrefix(live[0], "id: 3\n") || !strings.Contains(live[0], "run_end") {
		t.Fatalf("live frame = %q, want id 3 with run_end data", live[0])
	}
}

func TestMonitorEventsResume(t *testing.T) {
	m, addr := startMonitor(t)
	stream := m.EventStream()
	for i := 0; i < 5; i++ {
		stream.Publish([]byte(fmt.Sprintf(`{"type":"iter","rank":0,"iter":%d}`, i)))
	}
	req, err := http.NewRequest("GET", "http://"+addr+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "3")
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	frames := readSSEFrames(t, br, 3) // handshake + events 4 and 5
	if !strings.HasPrefix(frames[1], "id: 4\n") || !strings.HasPrefix(frames[2], "id: 5\n") {
		t.Fatalf("resume after id 3 replayed %q, want ids 4 and 5", frames[1:])
	}
}

func TestMonitorEventsBadLastEventID(t *testing.T) {
	_, addr := startMonitor(t)
	req, err := http.NewRequest("GET", "http://"+addr+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed Last-Event-ID got %d, want 400", resp.StatusCode)
	}
}

// TestSinkTeeFeedsStream: lines emitted through a teed sink appear on the
// stream byte-for-byte (modulo the newline the file gets and SSE does not).
func TestSinkTeeFeedsStream(t *testing.T) {
	var sb strings.Builder
	sink := NewSink(&sb)
	stream := NewStream(8)
	sink.Tee(stream)
	e := Event{Type: EventRunStart, Rank: 0, Ranks: 2, Iterations: 7}
	if err := sink.Emit(&e); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	evs := stream.Since(0)
	if len(evs) != 1 {
		t.Fatalf("stream got %d events, want 1", len(evs))
	}
	if got, want := string(evs[0].Data)+"\n", sb.String(); got != want {
		t.Fatalf("teed line %q differs from sink line %q", got, want)
	}
}

// TestMonitorShutdownDrainsSSE: Shutdown must return promptly even with a
// live SSE stream open — the handler watches the done channel — and the
// listener must stop accepting afterwards. A second Shutdown (or Close) is a
// no-op.
func TestMonitorShutdownDrainsSSE(t *testing.T) {
	m, addr := startMonitor(t)
	m.Attach(NewRegistry())

	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readSSEFrames(t, br, 1) // the ": stream open" handshake — handler is live

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Shutdown took %v with one SSE client, want prompt drain", d)
	}
	// The open SSE body must now terminate instead of hanging.
	if _, err := io.ReadAll(br); err != nil && !strings.Contains(err.Error(), "EOF") {
		t.Logf("SSE body ended with: %v", err) // any termination is fine
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close after Shutdown: %v", err)
	}
}

// TestMonitorPprofOptIn pins the -pprof gate: without EnablePprof the profile
// paths are 404 like any unknown route; with it they answer, and unrelated
// unknown paths still 404.
func TestMonitorPprofOptIn(t *testing.T) {
	client := &http.Client{Timeout: 10 * time.Second}

	_, addr := startMonitor(t)
	resp, err := client.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without EnablePprof: status %d, want 404", resp.StatusCode)
	}

	m := NewMonitor("127.0.0.1:0")
	m.EnablePprof()
	paddr, err := m.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/block", "/debug/pprof/cmdline"} {
		resp, err := client.Get("http://" + paddr + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with EnablePprof: status %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err = client.Get("http://" + paddr + "/favicon.ico")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path with pprof on: status %d, want 404", resp.StatusCode)
	}
}
