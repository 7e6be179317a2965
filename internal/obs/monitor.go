package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Monitor is the live HTTP endpoint of a run. It serves exactly three
// routes — anything else is a 404, so a typo'd path can never silently
// return the full metrics document:
//
//	/         the attached registry as one JSON document (alias of /metrics)
//	/metrics  same
//	/events   Server-Sent Events: the JSONL telemetry stream, live
//
// /events streams the same lines the file sink receives (Sink.Tee feeds the
// monitor's Stream), span events included, so the live timeline needs no
// route of its own: each SSE frame is `id: <n>` + `data: <one JSON event>`.
// A bounded ring buffer (DefaultStreamCapacity events) backs the endpoint,
// so a client that reconnects with a Last-Event-ID header resumes from the
// first event it missed, as long as it is still inside the window; a client
// too slow to drain its queue has events dropped rather than stalling the
// run, and detects the loss as a gap in the ids.
//
// Lifecycle: NewMonitor(addr) → Start (binds and serves in the background)
// → Attach(registry) once the run's rank-0 registry exists → Shutdown (or
// Close). A GET before Attach answers {"status":"waiting"}.
type Monitor struct {
	addr string

	mu      sync.Mutex
	reg     *Registry
	stream  *Stream
	ln      net.Listener
	srv     *http.Server
	done    chan struct{} // closed on Shutdown/Close; SSE handlers watch it
	pprofOn bool
}

// NewMonitor creates a monitor that will listen on addr (host:port; an
// empty host binds all interfaces, port 0 picks a free port).
func NewMonitor(addr string) *Monitor { return &Monitor{addr: addr} }

// Attach sets the registry the endpoint serves; typically called by the
// distributed engine with rank 0's registry. Attaching also wires the event
// stream's drop accounting into the registry (obs.events_dropped), so silent
// SSE fan-out loss shows up in /metrics.
func (m *Monitor) Attach(reg *Registry) {
	stream := m.EventStream() // before taking m.mu: EventStream locks it too
	if reg != nil {
		stream.SetDropCounter(reg.Counter(CtrEventsDropped))
	}
	m.mu.Lock()
	m.reg = reg
	m.mu.Unlock()
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the next Start —
// an explicit opt-in (the -pprof flag), never ambient, because the profile
// endpoints expose symbolised internals and cost sampling overhead. Block
// profiling is switched on at a 100µs sampling rate so contended-mutex and
// channel waits show up in /debug/pprof/block without measurably slowing
// the run. Must be called before Start.
func (m *Monitor) EnablePprof() {
	m.mu.Lock()
	m.pprofOn = true
	m.mu.Unlock()
	runtime.SetBlockProfileRate(100_000)
}

// EventStream returns the stream backing /events, creating it on first use.
// The engine tees its event sink into it (Sink.Tee) so SSE clients receive
// every rank's events live.
func (m *Monitor) EventStream() *Stream {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stream == nil {
		m.stream = NewStream(DefaultStreamCapacity)
	}
	return m.stream
}

// Start binds the listener and serves in a background goroutine. It returns
// the bound address (useful with port 0).
func (m *Monitor) Start() (string, error) {
	ln, err := net.Listen("tcp", m.addr)
	if err != nil {
		return "", err
	}
	// The explicit route table 404s everything it doesn't name — including
	// sub-paths of "/", which net/http would otherwise catch-all.
	routes := Routes{
		"/":        m.handleMetrics,
		"/metrics": m.handleMetrics,
		"/events":  m.handleEvents,
	}
	m.mu.Lock()
	pprofOn := m.pprofOn
	m.mu.Unlock()
	if pprofOn {
		// The trailing-slash entry gets ServeMux subtree matching, so the
		// named profiles (/debug/pprof/heap, goroutine, block, ...) resolve
		// through pprof.Index; the four non-profile handlers need their own
		// exact entries. Everything else still 404s.
		routes["/debug/pprof/"] = pprof.Index
		routes["/debug/pprof/cmdline"] = pprof.Cmdline
		routes["/debug/pprof/profile"] = pprof.Profile
		routes["/debug/pprof/symbol"] = pprof.Symbol
		routes["/debug/pprof/trace"] = pprof.Trace
	}
	mux := routes.Mux()
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	m.mu.Lock()
	m.ln = ln
	m.srv = srv
	m.done = make(chan struct{})
	m.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// handleMetrics renders the registry snapshot as indented JSON.
func (m *Monitor) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	m.mu.Lock()
	reg := m.reg
	m.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	var doc any
	if reg == nil {
		doc = map[string]string{"status": "waiting"}
	} else {
		doc = reg.Snapshot()
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	buf = append(buf, '\n')
	_, _ = w.Write(buf)
}

// handleEvents is the SSE endpoint: replay the buffered backlog after the
// client's Last-Event-ID, then stream live events until the client hangs up
// or the monitor closes. Frames are flushed per event; a comment heartbeat
// keeps idle connections alive through proxies.
func (m *Monitor) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var lastID uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad Last-Event-ID", http.StatusBadRequest)
			return
		}
		lastID = id
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	m.mu.Lock()
	done := m.done
	m.mu.Unlock()

	backlog, sub, cancel := m.EventStream().SubscribeFrom(lastID, 0)
	defer cancel()

	// An initial comment confirms the handshake even before any event exists.
	fmt.Fprintf(w, ": stream open\n\n")
	for _, ev := range backlog {
		writeSSE(w, ev)
	}
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-done:
			// Graceful shutdown: an SSE stream never ends on its own, so
			// Shutdown's drain would wait forever without this exit.
			return
		case ev := <-sub.C:
			writeSSE(w, ev)
			flusher.Flush()
		case <-heartbeat.C:
			fmt.Fprintf(w, ": ping\n\n")
			flusher.Flush()
		}
	}
}

// writeSSE emits one event frame. Event data is single-line JSON, so the
// one-data-line framing is always valid.
func writeSSE(w http.ResponseWriter, ev StreamEvent) {
	fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.ID, ev.Data)
}

// detach takes ownership of the server for teardown: it returns the live
// *http.Server (nil if never started or already torn down) and closes the
// done channel so streaming handlers finish their in-flight frame and
// return. Idempotent; Shutdown and Close race safely through it.
func (m *Monitor) detach() *http.Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	srv := m.srv
	m.srv = nil
	if m.done != nil {
		close(m.done)
		m.done = nil
	}
	return srv
}

// Shutdown stops the server gracefully: the listener closes immediately (no
// new connections), streaming handlers are told to return, and in-flight
// requests drain until done or ctx expires — at which point the remaining
// connections are closed hard. A monitor that was never started shuts down
// cleanly.
func (m *Monitor) Shutdown(ctx context.Context) error {
	srv := m.detach()
	if srv == nil {
		return nil
	}
	if err := srv.Shutdown(ctx); err != nil {
		return srv.Close()
	}
	return nil
}

// Close stops the server immediately (active SSE connections are torn down,
// which cancels their request contexts); a monitor that was never started
// closes cleanly.
func (m *Monitor) Close() error {
	srv := m.detach()
	if srv == nil {
		return nil
	}
	return srv.Close()
}
