// Package obs is the live telemetry layer: the one Observer each rank's
// engine loop times its stages through, the counter/gauge/histogram registry
// every instrumented subsystem (dkv, store, transport) registers into, the
// structured per-iteration JSONL event stream, span tracing, and the
// optional HTTP monitor that exposes a running job's registry without
// interrupting it.
//
// The package is a leaf — it imports only the standard library — so any
// layer of the stack can register metrics without creating import cycles.
// The hot path pays for telemetry only when it is switched on: the
// Observer's recorder and tracer are nil-checked, and registry counters are
// single atomic adds.
//
// The pieces:
//
//   - Observer (observer.go) and Phases (phases.go): a stage boundary is
//     read once on one clock (TraceNow) and every view is derived from that
//     interval — the always-on cumulative phase table (Table III), and, when
//     attached, the recorder's iter events and stage histograms and the
//     tracer's stage spans. The views agree to the nanosecond by
//     construction.
//   - Registry (registry.go): named atomic counters, gauges, and streaming
//     latency histograms with fixed log-spaced buckets (p50/p95/p99).
//     Snapshots fold across ranks — counters sum, gauges take the max,
//     histogram buckets add — which is how a distributed run's per-rank
//     registries become one Result.Metrics.
//   - Events (events.go): the JSON-lines schema of the one run log —
//     run_start, one "iter" event per iteration per rank with per-stage
//     durations and DKV counter deltas, "perplexity" points, one "span"
//     event per closed span, run_end — plus ReadEvents/Validate for
//     consumers (ocd-analyze, CI).
//   - RunRecorder (recorder.go) and Monitor (monitor.go): RunRecorder turns
//     the Observer's intervals into events and registry updates; Monitor
//     serves the registry as JSON over HTTP.
//   - Tracer (span.go): per-rank span recording, streamed into the run log
//     by the rank that made each span, or buffered (bounded) when there is
//     no log; either form renders as Chrome trace-event JSON
//     (chrometrace.go) and feeds the critical-path analyzer (critpath.go).
package obs
