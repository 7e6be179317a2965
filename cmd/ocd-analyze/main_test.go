package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
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
