package trainer

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// These tests drive the trainer the way a user does — Run(args, stdout) — and
// assert that each flag reaches the option it names; what the options then do
// is the libraries' own tests' business. Each replaces a shell step that used
// to live in ci.yml (named in the test's comment), so the same check now runs
// under go test ./... and the race detector.

// smokeGraph writes the 400-vertex planted graph the CI smokes trained on
// (ocd-gen -n 400 -k 8 -edges 3000 -seed 7).
func smokeGraph(t *testing.T) string {
	t.Helper()
	g, _, err := gen.Planted(gen.DefaultPlanted(400, 8, 3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "smoke.txt")
	if err := graph.WriteSNAPFile(path, g, "smoke"); err != nil {
		t.Fatal(err)
	}
	return path
}

// train runs the trainer to completion as ocd-cluster (default -ranks 4).
func train(args ...string) (stdout string, err error) {
	var buf bytes.Buffer
	err = Run("ocd-cluster", 4, args, &buf)
	return buf.String(), err
}

func mustTrain(t *testing.T, args ...string) string {
	t.Helper()
	out, err := train(args...)
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	return out
}

// liveOutput is a stdout the test can read while Run is still writing it.
type liveOutput struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{} // 1-buffered wake-up: a pending token means "re-check"
}

func (l *liveOutput) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.buf.Write(p)
	l.mu.Unlock()
	select {
	case l.wrote <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (l *liveOutput) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// await blocks until the output matches re and returns the first submatch.
func (l *liveOutput) await(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		if m := re.FindStringSubmatch(l.String()); m != nil {
			return m[1]
		}
		select {
		case <-l.wrote:
		case <-deadline:
			t.Fatalf("output never matched %v:\n%s", re, l.String())
		}
	}
}

// startTrainer runs the trainer in the background; the returned channel
// yields Run's error once it returns.
func startTrainer(args ...string) (*liveOutput, <-chan error) {
	out := &liveOutput{wrote: make(chan struct{}, 1)}
	done := make(chan error, 1)
	go func() { done <- Run("ocd-cluster", 4, args, out) }()
	return out, done
}

func waitDone(t *testing.T, out *liveOutput, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run failed: %v\n%s", err, out)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("run did not finish:\n%s", out)
	}
}

func readEvents(t *testing.T, path string) []obs.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return evs
}

func summarize(t *testing.T, path string) *obs.Summary {
	t.Helper()
	sum, err := obs.Summarize(readEvents(t, path))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return sum
}

// get returns the status and body of a GET, and the snapshot version header
// (-1 when absent).
func get(t *testing.T, url string) (status int, body string, version int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	version = -1
	if v := resp.Header.Get(serve.HeaderVersion); v != "" {
		if version, err = strconv.Atoi(v); err != nil {
			t.Fatalf("%s: bad %s %q", url, serve.HeaderVersion, v)
		}
	}
	return resp.StatusCode, string(b), version
}

var (
	monitorLine = regexp.MustCompile(`monitor: (http://\S+)/metrics`)
	serveLine   = regexp.MustCompile(`serving queries: (http://[^/\s]+)/`)
)

// awaitSnapshot polls the query server until the first snapshot is
// published (503 until then) and returns its version.
func awaitSnapshot(t *testing.T, base string) int {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if status, _, v := get(t, base+"/topk?v=0"); status == http.StatusOK {
			return v
		}
	}
	t.Fatalf("%s never served a snapshot", base)
	return 0
}

// TestTelemetryStream replaces the "telemetry smoke" step: 3 pipelined ranks
// write a JSONL stream that validates line by line and folds to a summary of
// the run that was asked for.
func TestTelemetryStream(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "run.jsonl")
	out := mustTrain(t, "-graph", smokeGraph(t), "-ranks", "3", "-k", "8", "-iters", "20", "-eval", "10",
		"-pipeline", "-metrics-out", jsonl, "-rank-table")
	sum := summarize(t, jsonl)
	if sum.Ranks != 3 || sum.Iterations != 20 || sum.FinalPerplexity <= 0 {
		t.Errorf("summary: %d ranks, %d iterations, final perplexity %v; want 3, 20, > 0", sum.Ranks, sum.Iterations, sum.FinalPerplexity)
	}
	if sum.DKV.Requests == 0 || sum.StageMSPerIter["update_phi.load_pi"] <= 0 {
		t.Errorf("summary carries no DKV traffic / pipelined load stage: %+v", sum)
	}
	for _, want := range []string{"phase breakdown (max across 3 ranks)", "per-rank breakdown:", "DKV traffic:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestStreamEndsAtRunEnd: -posterior-samples keeps stepping the sampler past
// -iters (20 iterations per sample), and after a distributed run's last
// iteration the master still reads every rank's π shard out of the DKV
// servers. Neither is the run: no iter or span line follows run_end, and the
// stream summarises to -iters.
func TestStreamEndsAtRunEnd(t *testing.T) {
	g := smokeGraph(t)
	for _, tc := range []struct {
		ranks int
		extra []string
	}{
		{1, []string{"-posterior-samples", "2", "-auc"}},
		{2, []string{"-transport", "tcp"}},
	} {
		jsonl := filepath.Join(t.TempDir(), "run.jsonl")
		out := mustTrain(t, append([]string{"-graph", g, "-ranks", strconv.Itoa(tc.ranks), "-k", "8", "-iters", "20", "-eval", "10",
			"-metrics-out", jsonl}, tc.extra...)...)
		if tc.ranks == 1 && (!strings.Contains(out, "averaged 2 posterior samples") || !strings.Contains(out, "held-out link-prediction AUC:")) {
			t.Errorf("report lacks the posterior-mean estimate:\n%s", out)
		}
		events := readEvents(t, jsonl)
		if last := events[len(events)-1]; last.Type != obs.EventRunEnd {
			t.Errorf("-ranks %d: stream ends with a %q event, want run_end", tc.ranks, last.Type)
		}
		if len(obs.TraceFromEvents(events)) == 0 {
			t.Errorf("-ranks %d: the log carries no spans", tc.ranks)
		}
		if sum := summarize(t, jsonl); sum.Ranks != tc.ranks || sum.Iterations != 20 {
			t.Errorf("-ranks %d summary: %d ranks, %d iterations; want %d, 20", tc.ranks, sum.Ranks, sum.Iterations, tc.ranks)
		}
	}
}

// TestThreeRanksOverTCP replaces the "cross-iteration cache smoke": -transport
// tcp reaches the engine, visible as TCP traffic in the report and DKV
// traffic in the stream. The DKV row cache and its four -hot-cache* flags
// are gone; setting one is an unknown flag.
func TestThreeRanksOverTCP(t *testing.T) {
	g, jsonl := smokeGraph(t), filepath.Join(t.TempDir(), "run.jsonl")
	out := mustTrain(t, "-graph", g, "-ranks", "3", "-k", "8", "-iters", "20", "-eval", "10",
		"-transport", "tcp", "-metrics-out", jsonl)
	if sum := summarize(t, jsonl); sum.DKV.Requests == 0 {
		t.Errorf("the stream carries no DKV traffic: %+v", sum.DKV)
	}
	if !strings.Contains(out, "transport (tcp):") {
		t.Errorf("report does not show the tcp transport:\n%s", out)
	}
	_, err := train("-graph", g, "-ranks", "3", "-hot-cache", "512")
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -hot-cache") {
		t.Errorf("-hot-cache 512: err = %v, want an undefined flag", err)
	}
}

// TestLiveSSEAndStraggler replaces the "live SSE smoke": during a TCP run
// with rank 1's collective sends delayed, the monitor 404s unknown paths and
// streams iter events over /events, and the report localises the straggler.
// The 10 ms send delay (the CI step used 2 ms) keeps rank 1's imposed wait
// well over the 2× straggler threshold even under the race detector, and
// bounds the run from below (~40 ms/iteration), so it outlives the requests
// on any machine.
func TestLiveSSEAndStraggler(t *testing.T) {
	out, done := startTrainer("-graph", smokeGraph(t), "-ranks", "2", "-k", "8", "-iters", "60", "-eval", "0",
		"-transport", "tcp", "-monitor", "127.0.0.1:0", "-slow-rank", "1", "-slow-send", "10ms")
	base := out.await(t, monitorLine)
	if status, _, _ := get(t, base+"/metrics"); status != http.StatusOK {
		t.Errorf("/metrics: status %d", status)
	}
	if status, _, _ := get(t, base+"/favicon.ico"); status != http.StatusNotFound {
		t.Errorf("/favicon.ico: status %d, want 404", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sawIter := false
	for sc := bufio.NewScanner(resp.Body); !sawIter && sc.Scan(); {
		sawIter = strings.Contains(sc.Text(), `"type":"iter"`)
	}
	resp.Body.Close()
	if !sawIter {
		t.Error("/events carried no iter event")
	}
	waitDone(t, out, done)
	if !strings.Contains(out.String(), "straggler: rank 1") {
		t.Errorf("report does not localise the straggler:\n%s", out)
	}
}

// TestServeMidRun replaces the "serve smoke": -serve and -publish-every
// answer the three query endpoints mid-run over TCP with versions that never
// move backwards and do advance, and unknown paths 404.
func TestServeMidRun(t *testing.T) {
	out, done := startTrainer("-graph", smokeGraph(t), "-ranks", "2", "-k", "8", "-iters", "200", "-eval", "0",
		"-transport", "tcp", "-serve", "127.0.0.1:0", "-publish-every", "2", "-slow-rank", "1", "-slow-send", "2ms")
	base := out.await(t, serveLine)
	last := awaitSnapshot(t, base)
	first := last
	for _, q := range []string{"/topk?v=17&k=3", "/members?c=2&limit=5", "/shared?u=17&v=42"} {
		status, body, v := get(t, base+q)
		if status != http.StatusOK || v < last {
			t.Errorf("%s: status %d, version %d after %d\n%s", q, status, v, last, body)
		}
		if v%2 != 0 {
			t.Errorf("%s: version %d is not a multiple of -publish-every 2", q, v)
		}
		last = v
	}
	for deadline := time.Now().Add(30 * time.Second); last <= first; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot version stuck at %d while training continues", first)
		}
		_, _, last = get(t, base+"/topk?v=17")
	}
	if status, _, _ := get(t, base+"/unknown"); status != http.StatusNotFound {
		t.Errorf("/unknown: status %d, want 404", status)
	}
	waitDone(t, out, done)
}

// TestTraceOut replaces the "trace smoke": the -metrics-out log of a 2-rank
// TCP run carries both ranks' spans, DKV server-side spans included, and the
// critical-path verdict computed from that log names the rank -slow-rank
// delayed, at >= 50% of the critical path.
func TestTraceOut(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "run.jsonl")
	mustTrain(t, "-graph", smokeGraph(t), "-ranks", "2", "-k", "8", "-iters", "40", "-eval", "0",
		"-transport", "tcp", "-slow-rank", "1", "-slow-send", "5ms", "-metrics-out", jsonl)
	bundles := obs.TraceFromEvents(readEvents(t, jsonl))
	ranks, serveSpans, waitReads := map[int]bool{}, 0, 0
	for _, b := range bundles {
		for _, sp := range b.Spans {
			ranks[sp.Rank] = true
			if strings.HasPrefix(sp.Name, "dkv.serve.") {
				serveSpans++
			}
			if sp.Name == "dkv.wait.read" {
				waitReads++
			}
		}
	}
	if !ranks[0] || !ranks[1] || len(ranks) != 2 || serveSpans == 0 || waitReads == 0 {
		t.Errorf("log has spans of ranks %v, %d dkv.serve.*, %d dkv.wait.read", ranks, serveSpans, waitReads)
	}
	if rep := obs.AnalyzeCriticalPath(bundles); rep.Verdict != 1 || rep.VerdictFrac < 0.5 {
		t.Errorf("critical-path verdict names rank %d at %.1f%%, want the slowed rank 1 at >= 50%%\n%s",
			rep.Verdict, 100*rep.VerdictFrac, rep)
	}
}

// TestFailedRunKeepsItsSpans: spans stream into the log as they close, so a
// run that loses rank 1 at iteration 30 leaves the timeline up to the
// failure — both ranks' iteration spans through 29 — for the analyzer.
func TestFailedRunKeepsItsSpans(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "failed.jsonl")
	out, err := train("-graph", smokeGraph(t), "-ranks", "2", "-k", "8", "-iters", "40", "-eval", "0",
		"-transport", "tcp", "-fail-rank", "1", "-fail-iter", "30", "-metrics-out", jsonl)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("run with a killed rank: err = %v\n%s", err, out)
	}
	lastIter := map[int]int{}
	for _, b := range obs.TraceFromEvents(readEvents(t, jsonl)) {
		lastIter[b.Rank] = -1
		for _, sp := range b.Spans {
			if sp.Cat == obs.CatIter && sp.Iter > lastIter[b.Rank] {
				lastIter[b.Rank] = sp.Iter
			}
		}
	}
	if lastIter[0] != 29 || lastIter[1] != 29 || len(lastIter) != 2 {
		t.Errorf("last iteration span per rank: %v, want 29 on ranks 0 and 1", lastIter)
	}
}

// iterTimes returns rank 0's per-iteration wall clock (ms) from a stream, in
// iteration order: the differences of its cumulative elapsed_ms.
func iterTimes(t *testing.T, path string) []float64 {
	t.Helper()
	var elapsed []float64
	for _, e := range readEvents(t, path) {
		if e.Type == obs.EventIter && e.Rank == 0 {
			elapsed = append(elapsed, e.ElapsedMS) // a rank emits its iter events in order
		}
	}
	d := make([]float64, 0, len(elapsed))
	for i := 1; i < len(elapsed); i++ {
		d = append(d, elapsed[i]-elapsed[i-1])
	}
	return d
}

func median(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// TestRebalanceRecovers replaces the "straggler mitigation smoke": with rank
// 1's update_phi degraded per assigned node (-slow-phi) and -rebalance on,
// the stream carries rebalance events and the trailing iterations run within
// 1.3× of the no-fault median. A wall-clock property, hence not under -short;
// the race detector's slowdown distorts the ratio (~1.25 on 2 CPUs), so under
// it only the events are checked.
func TestRebalanceRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("compares wall-clock iteration times")
	}
	g, dir := smokeGraph(t), t.TempDir()
	nofault, rebal := filepath.Join(dir, "nofault.jsonl"), filepath.Join(dir, "rebal.jsonl")
	common := []string{"-graph", g, "-ranks", "2", "-k", "8", "-iters", "150", "-eval", "0", "-transport", "tcp"}
	mustTrain(t, append(common, "-metrics-out", nofault)...)
	out := mustTrain(t, append(common, "-slow-rank", "1", "-slow-send", "0", "-slow-phi", "200us",
		"-rebalance", "-metrics-out", rebal)...)
	if !strings.Contains(out, "straggler mitigation:") {
		t.Errorf("report lacks the mitigation line:\n%s", out)
	}
	sum := summarize(t, rebal)
	if sum.Rebalances == 0 || len(sum.FinalWeights) != 2 {
		t.Fatalf("stream carries no rebalance event: %+v", sum)
	}
	mitigatedTimes := iterTimes(t, rebal)
	base, mitigated := median(iterTimes(t, nofault)), median(mitigatedTimes[len(mitigatedTimes)-40:])
	t.Logf("no-fault median %.2f ms, mitigated trailing-40 median %.2f ms, ratio %.2f", base, mitigated, mitigated/base)
	if mitigated > 1.3*base && !raceEnabled {
		t.Errorf("mitigation did not recover steady-state iteration time: %.2f ms vs %.2f ms no-fault", mitigated, base)
	}
}

// TestKillCheckpointResumeServe replaces the "recovery smoke" and pins the
// failed-run bugfix: a run that checkpoints every 20 iterations and loses
// rank 1 at iteration 45 returns an error, leaves the iteration-40 checkpoint
// and a JSONL stream that is complete up to the failure (no torn tail; rank
// 0's last iter event is fail-iter − 1 — the parent exited through os.Exit
// with those events still buffered); -resume then finishes the run and serves
// queries on the way.
func TestKillCheckpointResumeServe(t *testing.T) {
	g, dir := smokeGraph(t), t.TempDir()
	ckpt, jsonl := filepath.Join(dir, "ck.ckpt"), filepath.Join(dir, "killed.jsonl")
	common := []string{"-graph", g, "-ranks", "2", "-k", "8", "-eval", "0", "-transport", "tcp"}
	out, err := train(append(common, "-iters", "60", "-checkpoint", ckpt, "-checkpoint-every", "20",
		"-fail-rank", "1", "-fail-iter", "45", "-metrics-out", jsonl)...)
	if err == nil || !strings.Contains(err.Error(), "rank 1: iteration 45: injected fault") {
		t.Fatalf("run with a killed rank: err = %v\n%s", err, out)
	}
	lastIter := -1
	for _, e := range readEvents(t, jsonl) { // fails on a torn tail
		if e.Type == obs.EventIter && e.Rank == 0 {
			lastIter = e.Iter
		}
	}
	if lastIter != 44 {
		t.Errorf("rank 0's last iter event is %d, want 44 (the tail of the stream was lost)", lastIter)
	}

	live, done := startTrainer(append(common, "-iters", "160", "-resume", ckpt, "-serve", "127.0.0.1:0",
		"-publish-every", "2", "-slow-rank", "1", "-slow-send", "2ms")...)
	base := live.await(t, serveLine)
	if v := awaitSnapshot(t, base); v <= 40 {
		t.Errorf("resumed run served snapshot version %d, want past the checkpoint's 40", v)
	}
	if _, body, _ := get(t, base+"/topk?v=17&k=3"); !strings.Contains(body, `"community"`) {
		t.Errorf("/topk mid-resume: %s", body)
	}
	waitDone(t, live, done)
	for _, want := range []string{"resumed from " + ckpt + " at iteration 40", "trained 120 iterations"} {
		if !strings.Contains(live.String(), want) {
			t.Errorf("resumed run's report lacks %q:\n%s", want, live)
		}
	}
}

var perplexityRow = regexp.MustCompile(`(?m)^\s*(\d+)\s+[0-9.]+\s+([0-9.]+)\s*$`)

// perplexityColumns extracts the (iteration, perplexity) columns of the
// report's table — everything but the elapsed time.
func perplexityColumns(out string) [][2]string {
	var rows [][2]string
	for _, m := range perplexityRow.FindAllStringSubmatch(out, -1) {
		rows = append(rows, [2]string{m[1], m[2]})
	}
	return rows
}

// TestRanksOneMatchesRanksTwo: the engine choice is a launch parameter, not a
// different program — the same seed at -ranks 1 and -ranks 2 prints the same
// perplexity columns and writes byte-identical end-of-run checkpoints.
func TestRanksOneMatchesRanksTwo(t *testing.T) {
	g, dir := smokeGraph(t), t.TempDir()
	var outs [2]string
	var ckpts [2][]byte
	for i, ranks := range []string{"1", "2"} {
		path := filepath.Join(dir, "ranks"+ranks+".ckpt")
		outs[i] = mustTrain(t, "-graph", g, "-ranks", ranks, "-k", "8", "-iters", "40", "-eval", "10", "-checkpoint", path)
		var err error
		if ckpts[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	one, two := perplexityColumns(outs[0]), perplexityColumns(outs[1])
	if len(one) != 4 || fmt.Sprint(one) != fmt.Sprint(two) {
		t.Errorf("perplexity columns differ:\n-ranks 1: %v\n-ranks 2: %v", one, two)
	}
	if !bytes.Equal(ckpts[0], ckpts[1]) {
		t.Error("end-of-run checkpoints differ between -ranks 1 and -ranks 2")
	}
}

// TestItersIsAbsoluteAfterResume: -iters is the target iteration at every
// -ranks. Resuming an iteration-20 checkpoint with -iters 30 trains 10
// iterations labelled 21…30 and lands on the uninterrupted run's bytes (the
// parent's ocd-train ran 30 more and labelled them 1…30); a checkpoint at or
// past -iters is an error.
func TestItersIsAbsoluteAfterResume(t *testing.T) {
	g, dir := smokeGraph(t), t.TempDir()
	at20, at30, straight := filepath.Join(dir, "20.ckpt"), filepath.Join(dir, "30.ckpt"), filepath.Join(dir, "straight.ckpt")
	mustTrain(t, "-graph", g, "-ranks", "1", "-k", "8", "-iters", "30", "-eval", "0", "-checkpoint", straight)
	mustTrain(t, "-graph", g, "-ranks", "1", "-k", "8", "-iters", "20", "-eval", "0", "-checkpoint", at20)
	for _, ranks := range []string{"1", "3"} {
		out := mustTrain(t, "-graph", g, "-ranks", ranks, "-k", "8", "-iters", "30", "-eval", "10", "-resume", at20, "-checkpoint", at30)
		if rows := perplexityColumns(out); len(rows) != 1 || rows[0][0] != "30" {
			t.Errorf("-ranks %s: perplexity rows %v, want one row at iteration 30", ranks, rows)
		}
		if !strings.Contains(out, "trained 10 iterations") {
			t.Errorf("-ranks %s: resumed run did not train exactly 10 iterations:\n%s", ranks, out)
		}
		want, _ := os.ReadFile(straight)
		if got, _ := os.ReadFile(at30); !bytes.Equal(got, want) {
			t.Errorf("-ranks %s: resumed checkpoint differs from the uninterrupted run's", ranks)
		}
		if _, err := train("-graph", g, "-ranks", ranks, "-k", "8", "-iters", "20", "-resume", at20); err == nil ||
			!strings.Contains(err.Error(), "at or past -iters 20") {
			t.Errorf("-ranks %s: resuming at -iters: err = %v", ranks, err)
		}
	}
}

// tripwire is a stdout that runs fn once, when output containing trigger goes
// by — a way to act between two steps of a single-node Run (which prints as it
// goes) without a hook inside it.
type tripwire struct {
	bytes.Buffer
	trigger string
	fn      func()
}

func (w *tripwire) Write(p []byte) (int, error) {
	if w.fn != nil && strings.Contains(string(p), w.trigger) {
		w.fn()
		w.fn = nil
	}
	return w.Buffer.Write(p)
}

// TestCheckpointEveryAtRanksOne: -checkpoint-every is honoured by the
// single-node engine too. The file is copied aside when the iteration-20
// perplexity row prints; the copy is the periodic write at 20, the file
// itself ends as the run-end write at 25.
func TestCheckpointEveryAtRanksOne(t *testing.T) {
	g, dir := smokeGraph(t), t.TempDir()
	ckpt, midRun := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "midrun.ckpt")
	out := &tripwire{trigger: "        20 ", fn: func() {
		b, err := os.ReadFile(ckpt)
		if err != nil {
			t.Error(err)
		}
		os.WriteFile(midRun, b, 0o644)
	}}
	if err := Run("ocd-train", 1, []string{"-graph", g, "-k", "8", "-iters", "25", "-eval", "10",
		"-checkpoint", ckpt, "-checkpoint-every", "10"}, out); err != nil {
		t.Fatal(err)
	}
	for path, iter := range map[string]string{midRun: "20", ckpt: "25"} {
		_, err := train("-graph", g, "-ranks", "1", "-k", "8", "-iters", "1", "-resume", path)
		if err == nil || !strings.Contains(err.Error(), "is at iteration "+iter+",") {
			t.Errorf("%s: resume says %v, want a checkpoint at iteration %s", filepath.Base(path), err, iter)
		}
	}
}

// TestStoreWriteFailureIsAnError pins the TryStep bugfix: under -pi-backend
// mmap a store write that fails mid-run — here the first post-seal write
// cannot create its .work copy, because -pi-dir stopped being a directory
// right after the backend came up — is Run's error, naming the iteration.
// The parent's ocd-train drove the loop with Step and died in a panic.
func TestStoreWriteFailureIsAnError(t *testing.T) {
	piDir := filepath.Join(t.TempDir(), "pi")
	out := &tripwire{trigger: "π backend: mmap", fn: func() {
		// The sealed shards stay mapped; only new files can no longer appear.
		if err := os.RemoveAll(piDir); err != nil {
			t.Error(err)
		}
		if err := os.WriteFile(piDir, nil, 0o644); err != nil {
			t.Error(err)
		}
	}}
	err := Run("ocd-train", 1, []string{"-graph", smokeGraph(t), "-k", "8", "-iters", "5", "-eval", "0",
		"-pi-backend", "mmap", "-pi-dir", piDir}, out)
	if err == nil || !strings.Contains(err.Error(), "iteration 0:") || !strings.Contains(err.Error(), "shard-00000.work") {
		t.Fatalf("err = %v, want the iteration-0 store write failure\n%s", err, out)
	}
}

// TestEngineFlagRejections: every flag only one engine honours, set
// explicitly under the other, is a start-up error naming the flag — before
// the graph is even opened (the path here does not exist).
func TestEngineFlagRejections(t *testing.T) {
	r := new(run)
	fs := r.flagSet("test", 1)
	single := 0
	for name, need := range r.needsRanks {
		ranks := "1" // the engine that cannot honour the flag
		if need == "1" {
			ranks = "2"
			single++
		}
		// Setting a flag to its default is still setting it.
		_, err := train("-graph", "/nonexistent", "-ranks", ranks, "-"+name+"="+fs.Lookup(name).DefValue)
		if err == nil || !strings.Contains(err.Error(), "-"+name+" needs -ranks "+need) {
			t.Errorf("-%s at -ranks %s: err = %v, want a rejection naming the flag", name, ranks, err)
		}
	}
	if single != 4 || len(r.needsRanks) != 18 {
		t.Errorf("%d single-node-only of %d engine-only flags, want 4 of 18", single, len(r.needsRanks))
	}
	// The same flags at their own engine pass flag validation and fail on the
	// missing graph instead.
	for _, args := range [][]string{
		{"-ranks", "2", "-transport", "tcp", "-pipeline", "-monitor", "127.0.0.1:0"},
		{"-ranks", "1", "-pi-backend", "mmap", "-pi-dir", "x", "-posterior-samples", "0"},
	} {
		if _, err := train(append(args, "-graph", "/nonexistent")...); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v: err = %v, want the missing graph", args, err)
		}
	}
}

// TestValidateFaultFlags pins the fail-fast contract: a fault-injection
// target that cannot take effect is an error at startup, never a silently
// healthy run. The -slow-rank 5 on a 4-rank cluster case is the regression
// this guards — it used to be swallowed by a bounds check at the conn-wrap
// site, so the straggler drill measured nothing.
func TestValidateFaultFlags(t *testing.T) {
	cases := []struct {
		name     string
		ranks    int
		failRank int
		slowRank int
		slowPhi  time.Duration
		wantErr  string // substring; "" = must pass
	}{
		{"all disabled", 4, -1, -1, 0, ""},
		{"fail-rank in range", 4, 3, -1, 0, ""},
		{"slow-rank in range", 4, -1, 0, 0, ""},
		{"slow-phi with slow-rank", 4, -1, 1, time.Millisecond, ""},
		{"fail-rank == ranks", 4, 4, -1, 0, "-fail-rank 4 outside"},
		{"fail-rank far out", 4, 99, -1, 0, "-fail-rank 99 outside"},
		{"fail-rank below -1", 4, -2, -1, 0, "-fail-rank -2 outside"},
		{"slow-rank == ranks", 4, -1, 4, 0, "-slow-rank 4 outside"},
		{"slow-rank far out", 2, -1, 7, 0, "-slow-rank 7 outside"},
		{"slow-rank below -1", 4, -1, -3, 0, "-slow-rank -3 outside"},
		{"slow-phi without slow-rank", 4, -1, -1, time.Millisecond, "-slow-phi needs -slow-rank"},
		{"negative slow-phi", 4, -1, 1, -time.Millisecond, "is negative"},
		{"single rank valid", 1, 0, 0, time.Microsecond, ""},
		{"single rank out of range", 1, -1, 1, 0, "-slow-rank 1 outside"},
	}
	for _, tc := range cases {
		err := validateFaultFlags(tc.ranks, tc.failRank, tc.slowRank, tc.slowPhi)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted; want error containing %q", tc.name, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
