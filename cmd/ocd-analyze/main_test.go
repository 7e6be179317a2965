package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/trainer"
)

// The golden run log of internal/obs: two ranks, two iterations, and the
// spans of iteration 0 on both ranks.
var (
	goldenLog    = filepath.Join("..", "..", "internal", "obs", "testdata", "events.golden.jsonl")
	goldenChrome = filepath.Join("..", "..", "internal", "obs", "testdata", "chrometrace_golden.json")
)

func analyze(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, strings.NewReader(""), &out, &errb); err != nil {
		t.Fatalf("ocd-analyze %v: %v\n%s", args, err, errb.String())
	}
	return out.String(), errb.String()
}

// TestDigestGoldenLog: one log gives the event summary and the critical-path
// verdict.
func TestDigestGoldenLog(t *testing.T) {
	out, _ := analyze(t, goldenLog)
	for _, want := range []string{
		"telemetry: 7 events, 2 ranks, 2 iterations, 0.01s elapsed",
		"final perplexity: 42.5000",
		"  update_phi                  1.500",
		"critical path over 1 iterations, 2 ranks",
		"\nverdict: rank 1 bounds 59.3% of iteration critical-path time\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("digest lacks %q:\n%s", want, out)
		}
	}
}

// TestChromeRendersGoldenBytes: -chrome writes the golden Chrome file.
func TestChromeRendersGoldenBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace.json")
	analyze(t, "-chrome", path, goldenLog)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenChrome)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-chrome output differs from %s:\n%s", goldenChrome, got)
	}
}

// TestJSONHoldsSummaryAndCriticalPath: -json prints one object with both.
func TestJSONHoldsSummaryAndCriticalPath(t *testing.T) {
	out, _ := analyze(t, "-json", goldenLog)
	var doc struct {
		Summary      *obs.Summary    `json:"summary"`
		CriticalPath *obs.CritReport `json:"critical_path"`
	}
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("-json output is not one {summary, critical_path} object: %v\n%s", err, out)
	}
	if dec.More() {
		t.Fatalf("-json printed more than one object:\n%s", out)
	}
	if doc.Summary == nil || doc.Summary.Iterations != 2 || doc.Summary.FinalPerplexity != 42.5 {
		t.Errorf("summary = %+v", doc.Summary)
	}
	if doc.CriticalPath == nil || doc.CriticalPath.Ranks != 2 || len(doc.CriticalPath.Iters) != 1 || doc.CriticalPath.Verdict < 0 {
		t.Errorf("critical_path = %+v", doc.CriticalPath)
	}
}

// TestCacheKeysStillAnalyze: a log written while the DKV store had a row
// cache carries cache_* keys in its dkv blocks. obs.ReadEvents still reads
// it, and it digests exactly like the same log without them.
func TestCacheKeysStillAnalyze(t *testing.T) {
	golden, err := os.ReadFile(goldenLog)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.ReplaceAll(string(golden), `"bytes_written":480}`,
		`"bytes_written":480,"cache_hits":3,"cache_misses":25,"cache_evictions":2,"cache_invalidations":7}`)
	if old == string(golden) {
		t.Fatal("the golden log has no iter event to add cache keys to")
	}
	path := filepath.Join(t.TempDir(), "cached.jsonl")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _ := analyze(t, goldenLog)
	if got, stderr := analyze(t, path); got != want || stderr != "" {
		t.Errorf("digest with cache keys differs (stderr %q):\n%s\nwant:\n%s", stderr, got, want)
	}
}

// TestTornTailIsAWarning: a log cut mid-line — a crashed run's — warns on
// stderr and still digests every complete line, spans included.
func TestTornTailIsAWarning(t *testing.T) {
	golden, err := os.ReadFile(goldenLog)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	if err := os.WriteFile(path, golden[:len(golden)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr := analyze(t, path)
	if !strings.Contains(stderr, "warning:") || !strings.Contains(stderr, "torn tail") {
		t.Errorf("stderr lacks the torn-tail warning: %q", stderr)
	}
	for _, want := range []string{"telemetry: 6 events, 2 ranks, 2 iterations", "final perplexity: 42.5000", "verdict: rank "} {
		if !strings.Contains(out, want) {
			t.Errorf("digest of the torn log lacks %q:\n%s", want, out)
		}
	}
}

var recoveryF1 = regexp.MustCompile(`recovery: F1 = ([0-9.]+)`)

// TestPipelineScoresInFileIDs runs the documented pipeline — a planted graph
// and its truth as ocd-gen writes them, ocd-train -communities, ocd-analyze
// -truth — and pins that the detected cover and the truth meet in one id
// space, the graph file's. The SNAP reader densifies ids in order of first
// appearance, a permutation of the file's; scored in two different spaces,
// the truth would do no better than a copy of it under a random id
// permutation. In one space it must beat that copy clearly.
func TestPipelineScoresInFileIDs(t *testing.T) {
	const n, k = 400, 4
	dir := t.TempDir()
	g, truth, err := gen.Planted(gen.DefaultPlanted(n, k, 6000, 42))
	if err != nil {
		t.Fatal(err)
	}
	graphPath, detected := filepath.Join(dir, "g.txt"), filepath.Join(dir, "detected.txt")
	if err := graph.WriteSNAPFile(graphPath, g, "planted"); err != nil {
		t.Fatal(err)
	}
	writeCover := func(name string, id func(v int32) int) string {
		var b strings.Builder
		for _, members := range truth.Members {
			for i, v := range members {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(strconv.Itoa(id(v)))
			}
			b.WriteByte('\n')
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	perm := rand.New(rand.NewPCG(1, 2)).Perm(n)
	gt := writeCover("g.txt.gt", func(v int32) int { return int(v) })
	permuted := writeCover("permuted.gt", func(v int32) int { return perm[v] })

	if err := trainer.Run([]string{"-graph", graphPath, "-k", fmt.Sprint(k),
		"-iters", "1000", "-eval", "0", "-communities", detected}, io.Discard); err != nil {
		t.Fatal(err)
	}
	score := func(truthPath string) float64 {
		t.Helper()
		out, _ := analyze(t, "-graph", graphPath, "-detected", detected, "-truth", truthPath)
		m := recoveryF1.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no recovery line in:\n%s", out)
		}
		f1, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return f1
	}
	real, shuffled := score(gt), score(permuted)
	t.Logf("F1 against the planted truth %.4f, against an id-permuted copy %.4f", real, shuffled)
	if real < shuffled+0.15 {
		t.Errorf("F1 against the planted truth %.4f does not beat an id-permuted copy's %.4f by 0.15: the covers are scored in different id spaces",
			real, shuffled)
	}
}
