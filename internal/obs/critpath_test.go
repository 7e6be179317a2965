package obs

import (
	"math"
	"strings"
	"testing"
)

// twoRankIter builds one synthetic iteration window [0, 1000] on two ranks:
// rank 1 computes the whole window while rank 0 computes 0–200 then blocks in
// a collective recv on rank 1 for 200–1000. Rank 1 bounds the iteration, and
// the walk should charge all 1000ns to rank 1's compute.
func twoRankIter(iter int, base int64) []TraceBundle {
	return []TraceBundle{
		{Rank: 0, Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 0, Track: TrackEngine, Peer: NoPeer, Iter: iter, StartNS: base, DurNS: 990},
			{ID: 2, Parent: 1, Name: "recv", Cat: CatRecv, Rank: 0, Track: TrackEngine, Peer: 1, Iter: iter, StartNS: base + 200, DurNS: 790},
		}},
		{Rank: 1, Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 1, Track: TrackEngine, Peer: NoPeer, Iter: iter, StartNS: base, DurNS: 1000},
		}},
	}
}

// TestCritPathSlowRankCompute: a straggler's compute must be named as the
// bound, with the waiting rank charged nothing.
func TestCritPathSlowRankCompute(t *testing.T) {
	rep := AnalyzeCriticalPath(twoRankIter(0, 0))
	if rep.Ranks != 2 || len(rep.Iters) != 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.Iters[0].BoundingRank != 1 || rep.Iters[0].DurNS != 1000 {
		t.Fatalf("iter window: %+v", rep.Iters[0])
	}
	if rep.TotalNS != 1000 {
		t.Fatalf("TotalNS = %d, want 1000", rep.TotalNS)
	}
	if got := rep.Attr[1].ComputeNS; got != 1000 {
		t.Errorf("rank 1 compute = %d, want 1000", got)
	}
	if got := rep.Attr[0].TotalNS; got != 0 {
		t.Errorf("rank 0 charged %d, want 0 (it was waiting on the straggler)", got)
	}
	if rep.Verdict != 1 || rep.VerdictFrac != 1.0 {
		t.Errorf("verdict = rank %d frac %.2f, want rank 1 frac 1.00", rep.Verdict, rep.VerdictFrac)
	}
	if !strings.Contains(rep.String(), "verdict: rank 1 bounds 100.0%") {
		t.Errorf("report missing stable verdict line:\n%s", rep.String())
	}
}

// TestCritPathPeerImposedSegment: the bounding rank waits on a peer whose
// compute segment is charged as peer-imposed, then computes itself — the
// window must split between the two buckets exactly.
func TestCritPathPeerImposedSegment(t *testing.T) {
	// Window [0,1000]. Rank 0 bounds. Rank 0: recv on rank 1 covering
	// [0,600], then computes 600–1000. Rank 1 has no waits (computing
	// throughout): its segment under the recv is imposed on the path.
	bundles := []TraceBundle{
		{Rank: 0, Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 0, Track: TrackEngine, Peer: NoPeer, Iter: 0, StartNS: 0, DurNS: 1000},
			{ID: 2, Parent: 1, Name: "recv", Cat: CatRecv, Rank: 0, Track: TrackEngine, Peer: 1, Iter: 0, StartNS: 0, DurNS: 600},
		}},
		{Rank: 1, Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 1, Track: TrackEngine, Peer: NoPeer, Iter: 0, StartNS: 0, DurNS: 500},
		}},
	}
	rep := AnalyzeCriticalPath(bundles)
	if rep.Iters[0].BoundingRank != 0 {
		t.Fatalf("bounding rank = %d, want 0", rep.Iters[0].BoundingRank)
	}
	if got := rep.Attr[0].ComputeNS; got != 400 {
		t.Errorf("rank 0 compute = %d, want 400", got)
	}
	if got := rep.Attr[1].PeerImposedNS; got != 600 {
		t.Errorf("rank 1 imposed = %d, want 600", got)
	}
	if sum := rep.Attr[0].TotalNS + rep.Attr[1].TotalNS; sum != rep.TotalNS {
		t.Errorf("attribution does not cover the window: %d of %d ns", sum, rep.TotalNS)
	}
}

// TestCritPathDKVService: time blocked on a DKV response is charged to the
// SERVING rank's dkv bucket — the attribution the server-side spans exist for.
func TestCritPathDKVService(t *testing.T) {
	bundles := []TraceBundle{
		{Rank: 0, Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 0, Track: TrackEngine, Peer: NoPeer, Iter: 0, StartNS: 0, DurNS: 1000},
			// Blocked on rank 1's DKV server for 300–900.
			{ID: 2, Parent: 1, Name: "dkv.wait.read", Cat: CatDKVWait, Rank: 0, Track: TrackDKVClient, Peer: 1, Iter: 0, Tag: 7, StartNS: 300, DurNS: 600},
		}},
		{Rank: 1, Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 1, Track: TrackEngine, Peer: NoPeer, Iter: 0, StartNS: 0, DurNS: 400},
			// The matching server-side request: queue/handle/reply children.
			{ID: 10, Name: "dkv.serve.read", Cat: CatDKVServe, Rank: 1, Track: TrackDKVServer, Peer: 0, Iter: -1, Tag: 7, StartNS: 310, DurNS: 580},
			{ID: 11, Parent: 10, Name: "queue", Cat: CatDKVServe, Rank: 1, Track: TrackDKVServer, Peer: 0, Iter: -1, Tag: 7, StartNS: 310, DurNS: 100},
			{ID: 12, Parent: 10, Name: "handle", Cat: CatDKVServe, Rank: 1, Track: TrackDKVServer, Peer: 0, Iter: -1, Tag: 7, StartNS: 410, DurNS: 400},
			{ID: 13, Parent: 10, Name: "reply", Cat: CatDKVServe, Rank: 1, Track: TrackDKVServer, Peer: 0, Iter: -1, Tag: 7, StartNS: 810, DurNS: 80},
		}},
	}
	rep := AnalyzeCriticalPath(bundles)
	if got := rep.Attr[1].DKVServiceNS; got != 600 {
		t.Errorf("rank 1 dkv service = %d, want 600", got)
	}
	if got := rep.Attr[0].ComputeNS; got != 400 {
		t.Errorf("rank 0 compute = %d, want 400 (300 before the wait + 100 after)", got)
	}
	if len(rep.DKVServers) != 1 {
		t.Fatalf("DKVServers = %+v, want one entry", rep.DKVServers)
	}
	st := rep.DKVServers[0]
	if st.Rank != 1 || st.Requests != 1 {
		t.Errorf("server stats: %+v", st)
	}
	if st.QueueNS != 100 || st.HandleNS != 400 || st.ReplyNS != 80 {
		t.Errorf("queue/handle/reply = %d/%d/%d, want 100/400/80", st.QueueNS, st.HandleNS, st.ReplyNS)
	}
	if st.ByRequester[0] != 580 {
		t.Errorf("ByRequester[0] = %d, want 580 (the root span duration)", st.ByRequester[0])
	}
}

// TestCritPathHopGuard: mutually covering recv spans (each rank claims to be
// waiting on the other — possible with overlapping collective windows) must
// terminate via the cycle backstop instead of ping-ponging forever.
func TestCritPathHopGuard(t *testing.T) {
	bundles := []TraceBundle{
		{Rank: 0, Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 0, Track: TrackEngine, Peer: NoPeer, Iter: 0, StartNS: 0, DurNS: 1000},
			{ID: 2, Name: "recv", Cat: CatRecv, Rank: 0, Track: TrackEngine, Peer: 1, Iter: 0, StartNS: 0, DurNS: 1000},
		}},
		{Rank: 1, Spans: []Span{
			{ID: 1, Name: "iter", Cat: CatIter, Rank: 1, Track: TrackEngine, Peer: NoPeer, Iter: 0, StartNS: 0, DurNS: 1000},
			{ID: 2, Name: "recv", Cat: CatRecv, Rank: 1, Track: TrackEngine, Peer: 0, Iter: 0, StartNS: 0, DurNS: 1000},
		}},
	}
	rep := AnalyzeCriticalPath(bundles) // must return, not spin
	if sum := rep.Attr[0].TotalNS + rep.Attr[1].TotalNS; sum != rep.TotalNS {
		t.Errorf("cycle case did not cover the window: %d of %d ns", sum, rep.TotalNS)
	}
}

// TestCritPathMultiIterAggregation: attribution accumulates across iteration
// windows and the verdict fraction is the share of the summed path.
func TestCritPathMultiIterAggregation(t *testing.T) {
	var bundles []TraceBundle
	b0 := twoRankIter(0, 0)
	b1 := twoRankIter(1, 5000)
	// Merge per rank: gather order is one bundle per rank.
	for r := 0; r < 2; r++ {
		bundles = append(bundles, TraceBundle{
			Rank:  r,
			Spans: append(append([]Span(nil), b0[r].Spans...), b1[r].Spans...),
		})
	}
	rep := AnalyzeCriticalPath(bundles)
	if len(rep.Iters) != 2 || rep.TotalNS != 2000 {
		t.Fatalf("iters=%d total=%d, want 2 iters / 2000 ns", len(rep.Iters), rep.TotalNS)
	}
	if rep.Attr[1].ComputeNS != 2000 {
		t.Errorf("rank 1 compute = %d, want 2000", rep.Attr[1].ComputeNS)
	}
	if math.Abs(rep.VerdictFrac-1.0) > 1e-9 || rep.Verdict != 1 {
		t.Errorf("verdict rank %d frac %.3f, want rank 1 frac 1.0", rep.Verdict, rep.VerdictFrac)
	}
}

// TestCritPathEmptyAndDrops: no spans → a "no iteration spans" verdict. Drop
// counts are the Chrome rendering's (dropped_by_rank); a run log drops none.
func TestCritPathEmptyAndDrops(t *testing.T) {
	rep := AnalyzeCriticalPath(nil)
	if rep.Verdict != -1 || !strings.Contains(rep.String(), "no iteration spans") {
		t.Errorf("empty report: %q", rep.String())
	}
}
