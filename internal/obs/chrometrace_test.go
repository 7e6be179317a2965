package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the chrome trace golden file")

// goldenBundles is a small fixed two-rank trace exercising every field the
// exporter writes: nesting, peers, tags, iteration labels, all three tracks,
// and a legitimate peer/iter of 0. Drop counts are 0, as in every timeline
// read from a run log (streamed spans are never dropped).
func goldenBundles() []TraceBundle {
	return []TraceBundle{
		{Rank: 1, Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 1, Track: TrackEngine, Peer: NoPeer, Iter: 0, StartNS: 1000, DurNS: 9000},
			{ID: 2, Parent: 1, Name: "update_phi", Cat: CatStage, Rank: 1, Track: TrackEngine, Peer: NoPeer, Iter: 0, StartNS: 1500, DurNS: 4000},
			{ID: 3, Parent: 2, Name: "dkv.wait.read", Cat: CatDKVWait, Rank: 1, Track: TrackDKVClient, Peer: 0, Iter: 0, Tag: 17, StartNS: 2000, DurNS: 1500},
			{ID: 4, Name: "dkv.serve.read", Cat: CatDKVServe, Rank: 1, Track: TrackDKVServer, Peer: 0, Iter: -1, Tag: 9, StartNS: 6000, DurNS: 800},
		}},
		// Deliberately out of rank order: the writer must sort.
		{Rank: 0, Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 0, Track: TrackEngine, Peer: NoPeer, Iter: 0, StartNS: 900, DurNS: 9100},
			{ID: 2, Parent: 1, Name: "gather", Cat: CatCollective, Rank: 0, Track: TrackEngine, Peer: NoPeer, Iter: 0, Tag: 3, StartNS: 7000, DurNS: 2000},
			{ID: 3, Parent: 2, Name: "recv", Cat: CatRecv, Rank: 0, Track: TrackEngine, Peer: 1, Iter: 0, Tag: 3, StartNS: 7100, DurNS: 1800},
		}},
	}
}

// TestWriteChromeTraceGolden pins the exact bytes of the export: the file is
// the interchange format between runs, Perfetto, and ocd-analyze, so format
// drift must be a deliberate act (rerun with -update) rather than an accident.
func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenBundles()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrometrace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace output drifted from golden file (rerun with -update if deliberate)\ngot:\n%s", buf.String())
	}
}

// TestChromeTraceFromLog: the run log is the record and the Chrome file a
// rendering of it — the spans of the golden log (goldenEvents carries
// goldenBundles' spans) render to the golden Chrome file byte for byte.
func TestChromeTraceFromLog(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "events.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, TraceFromEvents(events)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "chrometrace_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rendering the golden log differs from the golden Chrome file\ngot:\n%s", buf.String())
	}
}

// TestChromeTraceMetadata checks the viewer-facing naming: one process per
// rank, one named thread lane per track in use.
func TestChromeTraceMetadata(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenBundles()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"rank 0"`, `"rank 1"`, `"engine"`, `"dkv client"`, `"dkv server"`, `"process_name"`, `"thread_name"`, `"dropped_by_rank"`} {
		if !strings.Contains(s, want) {
			t.Errorf("trace output missing %s", want)
		}
	}
}
