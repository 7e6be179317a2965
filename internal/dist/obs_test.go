package dist

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transport"
)

// TestRunEmitsTelemetry is the acceptance test for the live telemetry layer:
// a 2-rank run with an event sink attached must emit valid JSONL carrying
// one iter event per iteration per rank (with per-stage durations and DKV
// counter deltas) plus a perplexity event for every eval point, and the
// folded Result.Metrics must agree with the legacy DKV totals.
func TestRunEmitsTelemetry(t *testing.T) {
	train, held := fixture(t, 200, 4, 900, 77)
	const iters, ranks, evalEvery = 6, 2, 3
	cfg := core.DefaultConfig(4, 99)

	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	res, err := Run(cfg, train, held, Options{
		Ranks: ranks, Threads: 2, Iterations: iters, EvalEvery: evalEvery,
		Pipeline: true,
		Events:   sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatalf("stream is not valid JSONL: %v", err)
	}

	// Per-rank iteration events: exactly one per iteration, consecutive from
	// 0, each with stage durations; worker iter events carry DKV deltas.
	iterSeen := make(map[int][]int)
	var perps []obs.Event
	var runEnd obs.Event
	var starts, ends int
	for _, e := range events {
		switch e.Type {
		case obs.EventRunStart:
			starts++
			if e.Rank != 0 || e.Ranks != ranks || e.Iterations != iters {
				t.Fatalf("bad run_start: %+v", e)
			}
		case obs.EventRunEnd:
			ends++
			runEnd = e
		case obs.EventIter:
			iterSeen[e.Rank] = append(iterSeen[e.Rank], e.Iter)
			if len(e.StagesMS) == 0 {
				t.Fatalf("rank %d iter %d event has no stage durations", e.Rank, e.Iter)
			}
			for _, stage := range []string{engine.PhaseDeployMinibatch, engine.PhaseUpdatePhi, engine.PhaseUpdatePi, engine.PhaseUpdateBetaTheta} {
				if _, ok := e.StagesMS[stage]; !ok {
					t.Fatalf("rank %d iter %d event missing stage %q: %v", e.Rank, e.Iter, stage, e.StagesMS)
				}
			}
			if e.DKV == nil {
				t.Fatalf("rank %d iter %d event has no DKV counters", e.Rank, e.Iter)
			}
		case obs.EventPerplexity:
			perps = append(perps, e)
		}
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("got %d run_start, %d run_end events; want 1 each", starts, ends)
	}
	if len(iterSeen) != ranks {
		t.Fatalf("iter events from %d ranks; want %d", len(iterSeen), ranks)
	}
	for rank, seq := range iterSeen {
		if len(seq) != iters {
			t.Fatalf("rank %d emitted %d iter events; want %d", rank, len(seq), iters)
		}
		for i, got := range seq {
			if got != i {
				t.Fatalf("rank %d iter events out of order: position %d has iter %d", rank, i, got)
			}
		}
	}

	// Perplexity events: one per eval point, matching Result.Perplexity.
	if len(perps) != len(res.Perplexity) {
		t.Fatalf("%d perplexity events; want %d", len(perps), len(res.Perplexity))
	}
	for i, e := range perps {
		p := res.Perplexity[i]
		if e.Iter != p.Iter || e.Perplexity != p.Value {
			t.Fatalf("perplexity event %d = (iter %d, %v); Result has (iter %d, %v)",
				i, e.Iter, e.Perplexity, p.Iter, p.Value)
		}
	}

	// The master's prefetched draw must be attributed to the right iteration
	// even with pipelining on: every rank-0 iter event carries the stage.
	for _, e := range events {
		if e.Type == obs.EventIter && e.Rank == 0 {
			if _, ok := e.StagesMS[engine.PhaseDrawMinibatch]; !ok {
				t.Fatalf("rank 0 iter %d missing %s: %v", e.Iter, engine.PhaseDrawMinibatch, e.StagesMS)
			}
		}
	}

	// The folded registry snapshot must agree with the legacy DKV totals and
	// carry the per-stage latency histograms.
	c := res.Metrics.Counters
	if c[obs.CtrDKVRequests] != res.DKV.Requests || c[obs.CtrDKVRemoteKeys] != res.DKV.RemoteKeys {
		t.Fatalf("Metrics counters %v disagree with DKV totals %+v", c, res.DKV)
	}
	if res.DKV.Requests == 0 || res.DKV.RemoteKeys == 0 {
		t.Fatalf("expected nonzero DKV traffic, got %+v", res.DKV)
	}
	if c[obs.CtrNetMsgsSent] == 0 || c[obs.CtrNetBytesSent] == 0 {
		t.Fatalf("expected nonzero transport counters, got %v", c)
	}
	// run_end and Result count the same run: rank 0's cumulative DKV block is
	// its RankMetrics' counters, the master's final gather in neither.
	c0 := res.RankMetrics[0].Counters
	want := obs.DKVCounters{
		LocalKeys: c0[obs.CtrDKVLocalKeys], RemoteKeys: c0[obs.CtrDKVRemoteKeys], Requests: c0[obs.CtrDKVRequests],
		BytesRead: c0[obs.CtrDKVBytesRead], BytesWritten: c0[obs.CtrDKVBytesWritten],
	}
	if runEnd.DKV == nil || *runEnd.DKV != want {
		t.Fatalf("run_end DKV block %+v, rank 0's RankMetrics %+v", runEnd.DKV, want)
	}
	h, ok := res.Metrics.Histograms["stage."+engine.PhaseUpdatePhi]
	if !ok {
		t.Fatalf("no stage.%s histogram in Metrics: %v", engine.PhaseUpdatePhi, res.Metrics.Histograms)
	}
	if h.Count != int64(iters*ranks) {
		t.Fatalf("stage.%s histogram count = %d; want %d", engine.PhaseUpdatePhi, h.Count, iters*ranks)
	}

	// Summarize must accept the stream whole.
	sum, err := obs.Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ranks != ranks || sum.Iterations != iters {
		t.Fatalf("summary topology = (%d ranks, %d iters); want (%d, %d)",
			sum.Ranks, sum.Iterations, ranks, iters)
	}
	if sum.FinalPerplexity != res.Perplexity[len(res.Perplexity)-1].Value {
		t.Fatalf("summary final perplexity %v != result %v",
			sum.FinalPerplexity, res.Perplexity[len(res.Perplexity)-1].Value)
	}
}

// TestRunPeerMatrix pins the per-peer accounting invariants on a 2-rank run:
// each matrix row sums to that rank's aggregate transport.* counters, the
// whole matrix sums to the folded aggregates, and iter events carry per-peer
// wait deltas.
func TestRunPeerMatrix(t *testing.T) {
	train, held := fixture(t, 200, 4, 900, 77)
	const iters, ranks = 5, 2
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	res, err := Run(core.DefaultConfig(4, 99), train, held, Options{
		Ranks: ranks, Threads: 1, Iterations: iters, Events: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res.RankMetrics) != ranks {
		t.Fatalf("RankMetrics has %d snapshots, want %d", len(res.RankMetrics), ranks)
	}
	if res.Peers == nil || res.Peers.Ranks != ranks {
		t.Fatalf("Peers matrix = %+v, want %d ranks", res.Peers, ranks)
	}

	type grid struct {
		cells [][]int64
		aggr  string
	}
	grids := []grid{
		{res.Peers.MsgsSent, obs.CtrNetMsgsSent},
		{res.Peers.BytesSent, obs.CtrNetBytesSent},
		{res.Peers.MsgsRecv, obs.CtrNetMsgsRecv},
		{res.Peers.BytesRecv, obs.CtrNetBytesRecv},
	}
	for _, g := range grids {
		var total int64
		for r := 0; r < ranks; r++ {
			var row int64
			for p := 0; p < ranks; p++ {
				row += g.cells[r][p]
			}
			if want := res.RankMetrics[r].Counters[g.aggr]; row != want {
				t.Errorf("%s: row %d sums to %d; rank aggregate is %d", g.aggr, r, row, want)
			}
			total += row
		}
		if want := res.Metrics.Counters[g.aggr]; total != want {
			t.Errorf("%s: matrix total %d != folded aggregate %d", g.aggr, total, want)
		}
		if total == 0 {
			t.Errorf("%s: no traffic recorded", g.aggr)
		}
	}
	// Sends and receives are two views of the same frames: cell (r,p) of
	// MsgsSent must equal cell (p,r) of MsgsRecv once the run has quiesced.
	for r := 0; r < ranks; r++ {
		for p := 0; p < ranks; p++ {
			if res.Peers.MsgsSent[r][p] != res.Peers.MsgsRecv[p][r] {
				t.Errorf("MsgsSent[%d][%d]=%d != MsgsRecv[%d][%d]=%d",
					r, p, res.Peers.MsgsSent[r][p], p, r, res.Peers.MsgsRecv[p][r])
			}
		}
	}

	// The event stream carries the same signal: iter events with per-peer
	// wait deltas that Summarize folds into imposed-wait totals.
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sawPeerWait := false
	for _, e := range events {
		if e.Type == obs.EventIter && len(e.PeerWaitMS) > 0 {
			sawPeerWait = true
			break
		}
	}
	if !sawPeerWait {
		t.Fatal("no iter event carries peer_wait_ms")
	}
	sum, err := obs.Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.PeerWaitMS) == 0 {
		t.Fatal("summary has no per-peer wait totals")
	}
	// Phase attribution: the recorder was on, so the instrumented transports
	// opened transport.wait.<phase> histograms.
	found := false
	for name := range res.Metrics.Histograms {
		if strings.HasPrefix(name, "transport.wait.") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no transport.wait.<phase> histograms in Metrics: %v", res.Metrics.Histograms)
	}
}

// TestOptionalStagesRunOnlyWhenDue: a stage acts, and is timed and traced,
// only at the iterations and on the rank where it is due. A 2-rank,
// 20-iteration run that checkpoints and publishes every 5th iteration logs
// exactly 4 checkpoint and 4 publish_snapshot spans, all on rank 0, and its
// phase table counts the same 4. The master's reads for the last of them
// are served inside the run's accounting: every frame one rank sent, the
// other received.
func TestOptionalStagesRunOnlyWhenDue(t *testing.T) {
	train, held := fixture(t, 200, 4, 900, 77)
	const iters, every, ranks = 20, 5, 2
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	res, err := Run(core.DefaultConfig(4, 99), train, held, Options{
		Ranks: ranks, Threads: 1, Iterations: iters, Events: sink, Trace: true,
		CheckpointPath: filepath.Join(t.TempDir(), "m.ckpt"), CheckpointEvery: every,
		Publisher: store.NewPublisher(), PublishEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{engine.PhaseCheckpoint, engine.PhasePublish} {
		spans := make([]int, ranks)
		for _, b := range obs.TraceFromEvents(events) {
			for _, sp := range b.Spans {
				if sp.Cat == obs.CatStage && sp.Name == name {
					spans[b.Rank]++
				}
			}
		}
		if want := []int{iters / every, 0}; fmt.Sprint(spans) != fmt.Sprint(want) {
			t.Errorf("%s spans per rank %v, want %v", name, spans, want)
		}
		if got := res.Phases.Count(name); got != iters/every {
			t.Errorf("phase table counts %d %s intervals, want %d", got, name, iters/every)
		}
		if _, ok := res.RankPhases[1][name]; ok {
			t.Errorf("rank 1's phase table has a %s row", name)
		}
	}
	for r := 0; r < ranks; r++ {
		for p := 0; p < ranks; p++ {
			if res.Peers.MsgsSent[r][p] != res.Peers.MsgsRecv[p][r] || res.Peers.BytesSent[r][p] != res.Peers.BytesRecv[p][r] {
				t.Errorf("rank %d sent rank %d %d msgs / %d B; rank %d received %d msgs / %d B", r, p,
					res.Peers.MsgsSent[r][p], res.Peers.BytesSent[r][p], p, res.Peers.MsgsRecv[p][r], res.Peers.BytesRecv[p][r])
			}
		}
	}
}

// TestPosteriorSamplesAreNotCounted: the posterior-sample iterations and
// the master's gathers run past the fence that ends the run, so Result's
// counters are those of the same run without them. Only the wait times
// (the *_ns counters) may differ between two runs.
func TestPosteriorSamplesAreNotCounted(t *testing.T) {
	train, held := fixture(t, 200, 4, 900, 77)
	run := func(samples int) *Result {
		res, err := Run(core.DefaultConfig(4, 99), train, held, Options{
			Ranks: 2, Threads: 1, Iterations: 10, PosteriorSamples: samples,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, sampled := run(0), run(2)
	if plain.DKV != sampled.DKV {
		t.Errorf("DKV totals %+v without posterior samples, %+v with", plain.DKV, sampled.DKV)
	}
	counts := func(c map[string]int64) map[string]int64 {
		out := map[string]int64{}
		for name, v := range c {
			if !strings.HasSuffix(name, "_ns") {
				out[name] = v
			}
		}
		return out
	}
	if a, b := counts(plain.Metrics.Counters), counts(sampled.Metrics.Counters); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("counters without posterior samples:\n%v\nwith:\n%v", a, b)
	}
}

// TestRunStragglerFlagged is the acceptance test of the straggler report: a
// 2-rank run whose rank 1 delays every collective send must be flagged, both
// by the registry-backed matrix report and by the event-stream summary.
func TestRunStragglerFlagged(t *testing.T) {
	train, held := fixture(t, 200, 4, 900, 77)
	const iters, ranks = 5, 2
	fabric, err := transport.NewFabric(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	conns := fabric.Endpoints()
	// Slow rank 1's collective sends only (tags below TagUserBase): its
	// barrier/gather contributions arrive ~5ms late, so rank 0 blocks in
	// targeted receives waiting on it — the signature the report localises.
	conns[1] = &transport.FaultConn{
		Conn: conns[1],
		DelaySend: func(to int, tag uint32) time.Duration {
			if tag < cluster.TagUserBase {
				// Large enough to dominate baseline sync waits even under
				// -race instrumentation, which slows everything else too.
				return 5 * time.Millisecond
			}
			return 0
		},
	}
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	res, err := RunOnTransport(core.DefaultConfig(4, 99), train, held, Options{
		Ranks: ranks, Threads: 1, Iterations: iters, Events: sink,
	}, conns)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	rep := res.Peers.Straggler()
	if len(rep.Flagged) != 1 || rep.Flagged[0] != 1 {
		t.Fatalf("matrix report flagged %v (imposed %v, skew %.2f); want rank 1",
			rep.Flagged, rep.ImposedWaitMS, rep.Skew)
	}
	if rep.Skew < obs.StragglerSkew {
		t.Fatalf("skew %.2f below the flagging threshold %v", rep.Skew, obs.StragglerSkew)
	}

	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := obs.Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Stragglers) != 1 || sum.Stragglers[0] != 1 {
		t.Fatalf("event-stream summary flagged %v (waits %v); want rank 1",
			sum.Stragglers, sum.PeerWaitMS)
	}
}

// TestRunTelemetryOff pins the zero-cost default: no sink, no monitor — the
// run must carry no recorder state and still fill Metrics from the always-on
// counters.
func TestRunTelemetryOff(t *testing.T) {
	train, _ := fixture(t, 120, 3, 500, 31)
	res, err := Run(core.DefaultConfig(3, 7), train, nil, Options{
		Ranks: 2, Threads: 1, Iterations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DKV.Requests == 0 {
		t.Fatal("DKV totals empty without a recorder; counters must be always-on")
	}
	if len(res.Metrics.Histograms) != 0 {
		t.Fatalf("stage histograms recorded without a recorder: %v", res.Metrics.Histograms)
	}
}

// TestRankTable renders the per-rank × per-stage breakdown from a real run.
func TestRankTable(t *testing.T) {
	train, _ := fixture(t, 120, 3, 500, 31)
	const iters = 4
	res, err := Run(core.DefaultConfig(3, 7), train, nil, Options{
		Ranks: 2, Threads: 1, Iterations: iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := RankTable(res.RankPhases, iters)
	if !strings.Contains(table, "rank0") || !strings.Contains(table, "rank1") {
		t.Fatalf("table missing rank columns:\n%s", table)
	}
	for _, stage := range []string{engine.PhaseDeployMinibatch, engine.PhaseUpdatePhi, engine.PhaseUpdatePi, engine.PhaseTotal} {
		if !strings.Contains(table, stage) {
			t.Fatalf("table missing stage %q:\n%s", stage, table)
		}
	}
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	for _, ln := range lines[1:] {
		if len(ln) == 0 {
			t.Fatalf("empty row in table:\n%s", table)
		}
	}
	// draw_minibatch happens only at the master; rank 1's column shows "-".
	for _, ln := range lines {
		if strings.HasPrefix(ln, engine.PhaseDrawMinibatch) && !strings.Contains(ln, "-") {
			t.Fatalf("worker rank should have no %s time:\n%s", engine.PhaseDrawMinibatch, table)
		}
	}
}

// TestEveryViewIsTheSameMeasurement pins the one-observer invariant: a stage
// is timed once, so the phase table, the stage.<name> histogram, the iter
// events' stages_ms and the CatStage spans of one rank — read back from the
// same JSONL log as the events — are the same numbers: to the nanosecond
// where the view keeps integers, to float rounding where it keeps
// milliseconds. A second clock or a side channel that times a stage again
// breaks the equalities.
func TestEveryViewIsTheSameMeasurement(t *testing.T) {
	train, held := fixture(t, 200, 4, 900, 77)
	const iters, ranks = 6, 2
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	res, err := Run(core.DefaultConfig(4, 99), train, held, Options{
		Ranks: ranks, Threads: 2, Iterations: iters, EvalEvery: 3,
		Pipeline: true, Events: sink, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if res.Trace != nil {
		t.Errorf("a logged run buffered %d bundles; its spans belong in the log", len(res.Trace))
	}
	trace := obs.TraceFromEvents(events)
	if len(trace) != ranks {
		t.Fatalf("log carries spans of %d ranks, want %d", len(trace), ranks)
	}

	loopStages := []string{engine.PhaseDeployMinibatch, engine.PhaseUpdatePhi, engine.PhaseUpdatePi, engine.PhaseUpdateBetaTheta, engine.PhasePerplexity}
	for r := 0; r < ranks; r++ {
		table := res.RankPhases[r]

		spanNS := map[string]int64{}
		for _, sp := range trace[r].Spans {
			if sp.Cat == obs.CatStage && sp.Name != engine.PhaseBarrier {
				spanNS[sp.Name] += sp.DurNS
			}
		}
		if len(spanNS) != len(loopStages) {
			t.Errorf("rank %d: stage spans %v, want exactly the loop stages %v", r, spanNS, loopStages)
		}
		for _, name := range loopStages {
			if got, want := spanNS[name], int64(table[name]); got != want || want == 0 {
				t.Errorf("rank %d %s: Σ span DurNS = %d, phase table = %d; want equal and nonzero", r, name, got, want)
			}
		}

		eventMS := map[string]float64{}
		for _, e := range events {
			if e.Type != obs.EventIter || e.Rank != r {
				continue
			}
			for name, ms := range e.StagesMS {
				eventMS[name] += ms
			}
			// The draw for iteration t+1 is prefetched during iteration t but
			// belongs to t+1: every master event carries exactly its own.
			if _, ok := e.StagesMS[engine.PhaseDrawMinibatch]; r == 0 && !ok {
				t.Errorf("rank 0 iter %d event has no %s: %v", e.Iter, engine.PhaseDrawMinibatch, e.StagesMS)
			}
		}
		// Everything the table holds except the off-loop total is also a
		// histogram and an event entry: sub-stages, the prefetched draw and
		// the evaluation stage included.
		for name, total := range table {
			if name == engine.PhaseTotal {
				continue
			}
			wantMS := float64(total) / float64(time.Millisecond)
			if h := res.RankMetrics[r].Histograms["stage."+name]; h.SumMS != wantMS {
				t.Errorf("rank %d %s: histogram sum %v ms, phase table %v ms", r, name, h.SumMS, wantMS)
			}
			if got := eventMS[name]; math.Abs(got-wantMS) > 1e-9*wantMS {
				t.Errorf("rank %d %s: Σ stages_ms = %v, phase table %v ms", r, name, got, wantMS)
			}
		}
		if len(eventMS) != len(table)-1 {
			t.Errorf("rank %d: event stages %v vs phase table %v: want the table minus total", r, eventMS, table)
		}
	}
	if got := res.Phases.Count(engine.PhaseDrawMinibatch); got != iters {
		t.Errorf("%d draws for %d iterations", got, iters)
	}
}

// TestStartupIsChargedToNoIteration pins where the loop's measurements
// start: after the restart and the start-up barrier, on every rank. A
// 2-rank run resumes from an iteration-4 checkpoint while rank 0's sends
// are delayed 250 ms each until its loop starts, so rank 1 waits well over
// 200 ms on rank 0 before iteration 4. None of that may show in iteration
// 4: rank 0's first iter event carries the DKV requests of an ordinary
// iteration (not the restart's streaming), rank 1's first iter event no
// start-up wait, and the first mitigation window no start-up wait either —
// otherwise it flags rank 0 and the real straggler, rank 1, is drained a
// window late.
func TestStartupIsChargedToNoIteration(t *testing.T) {
	train, held := fixture(t, 400, 4, 2400, 51)
	cfg := core.DefaultConfig(4, 1234)
	const resumeAt, iters, window = 4, 8, 2
	ckpt := filepath.Join(t.TempDir(), "resume.ckpt")
	if _, err := Run(cfg, train, held, Options{
		Ranks: 2, Threads: 1, Iterations: resumeAt, MinibatchPairs: parityPairs,
		CheckpointPath: ckpt, CheckpointEvery: resumeAt,
	}); err != nil {
		t.Fatal(err)
	}

	fabric, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	conns := fabric.Endpoints()
	var looping atomic.Bool
	conns[0] = &transport.FaultConn{
		Conn: conns[0],
		DelaySend: func(int, uint32) time.Duration {
			if looping.Load() {
				return 0
			}
			return 250 * time.Millisecond
		},
	}
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	_, err = RunOnTransport(cfg, train, held, Options{
		Threads: 1, Iterations: iters, MinibatchPairs: parityPairs, RestartPath: ckpt,
		Events: sink, Rebalance: true, RebalanceWindow: window,
		ComputeDelay: func(rank, nodes int) time.Duration {
			return time.Duration(rank*nodes) * 400 * time.Microsecond
		},
		FaultHook: func(rank, iter int) error {
			if rank == 0 {
				looping.Store(true)
			}
			return nil
		},
	}, conns)
	if err != nil {
		t.Fatal(err)
	}

	var requests []int64
	var rank1First *obs.Event
	var rebalances []obs.Event
	for _, e := range readLog(t, sink, &buf) {
		switch {
		case e.Type == obs.EventIter && e.Rank == 0:
			if e.DKV == nil {
				t.Fatalf("rank 0 iteration %d carries no DKV block", e.Iter)
			}
			requests = append(requests, e.DKV.Requests)
		case e.Type == obs.EventIter && e.Rank == 1 && rank1First == nil:
			rank1First = &e
		case e.Type == obs.EventRebalance:
			rebalances = append(rebalances, e)
		}
	}
	if len(requests) != iters-resumeAt {
		t.Fatalf("rank 0 wrote %d iter events, want %d", len(requests), iters-resumeAt)
	}
	for i, r := range requests {
		if r != requests[len(requests)-1] {
			t.Fatalf("rank 0 DKV requests per iteration %v: iteration %d differs from the last", requests, resumeAt+i)
		}
	}
	if w := rank1First.PeerWaitMS[0]; w >= 200 {
		t.Fatalf("rank 1's first iteration carries %.0f ms of start-up wait on rank 0", w)
	}
	if len(rebalances) == 0 || rebalances[0].Iter != resumeAt+2*window-1 ||
		len(rebalances[0].Flagged) != 1 || rebalances[0].Flagged[0] != 1 {
		t.Fatalf("rebalance events %+v; want the first at iteration %d flagging rank 1", rebalances, resumeAt+2*window-1)
	}
}

// TestEvaluationIsChargedToItsIteration pins where held-out evaluation's
// traffic lands: evaluation is a loop stage, so an evaluating iteration's
// iter event carries its reads. Rank 0's per-iteration DKV requests then sum
// to run_end's cumulative count, and the last iteration — which evaluates —
// carries as many as every other evaluating one. Before, evaluation ran after
// the iteration's event was written: its reads landed in the next
// iteration's event, and the last evaluation's in none.
func TestEvaluationIsChargedToItsIteration(t *testing.T) {
	train, held := fixture(t, 400, 4, 2400, 51)
	const iters, every = 8, 2
	var buf bytes.Buffer
	sink := obs.NewSink(&buf)
	res, err := Run(core.DefaultConfig(4, 1234), train, held, Options{
		Ranks: 2, Threads: 1, Iterations: iters, EvalEvery: every,
		MinibatchPairs: parityPairs, Events: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The stage is timed only when it evaluates, so its mean is per
	// evaluation, not per iteration.
	if got := res.Phases.Count(engine.PhasePerplexity); got != iters/every {
		t.Fatalf("perplexity stage timed %d times, want one per evaluation (%d)", got, iters/every)
	}
	var requests []int64
	var total int64 = -1
	for _, e := range readLog(t, sink, &buf) {
		switch {
		case e.Type == obs.EventIter && e.Rank == 0:
			if e.DKV == nil {
				t.Fatalf("rank 0 iteration %d carries no DKV block", e.Iter)
			}
			requests = append(requests, e.DKV.Requests)
		case e.Type == obs.EventRunEnd:
			total = e.DKV.Requests
		}
	}
	if len(requests) != iters {
		t.Fatalf("rank 0 wrote %d iter events, want %d", len(requests), iters)
	}
	var sum int64
	for _, r := range requests {
		sum += r
	}
	if sum != total {
		t.Fatalf("rank 0 DKV requests per iteration %v sum to %d; run_end counts %d", requests, sum, total)
	}
	for i, r := range requests {
		if evaluates := (i+1)%every == 0; evaluates && r != requests[iters-1] || !evaluates && r != requests[0] {
			t.Fatalf("rank 0 DKV requests per iteration %v: iteration %d differs from the others like it", requests, i)
		}
	}
	if requests[iters-1] <= requests[0] {
		t.Fatalf("rank 0 DKV requests per iteration %v: the last iteration carries no evaluation reads", requests)
	}
}
