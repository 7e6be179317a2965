package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Critical-path analysis over span bundles: for every iteration,
// which rank bounded the wall clock, and why. The algorithm walks the
// causal chain backward from the bounding rank's iteration end — a rank is
// either computing or inside a recorded wait (a blocking collective receive
// or a DKV response wait); waits transfer blame to the peer they waited on,
// compute segments charge the rank that was computing. Every nanosecond of
// the per-iteration critical path lands in exactly one bucket:
//
//   Compute      — the bounding rank itself was busy
//   PeerImposed  — another rank's compute held the bounding rank up
//                  (via a chain of collective waits)
//   DKVService   — the path was blocked on a DKV response; charged to the
//                  SERVING rank, which is the point of server-side spans
//
// This turns the straggler flag (who is slow) into a verdict with a cause
// (what they were doing while everyone waited).

// RankAttribution is one rank's share of the total critical-path time.
type RankAttribution struct {
	Rank          int   `json:"rank"`
	ComputeNS     int64 `json:"compute_ns"`
	PeerImposedNS int64 `json:"peer_imposed_ns"`
	DKVServiceNS  int64 `json:"dkv_service_ns"`
	TotalNS       int64 `json:"total_ns"`
}

// IterCrit summarises one iteration's window.
type IterCrit struct {
	Iter         int   `json:"iter"`
	BoundingRank int   `json:"bounding_rank"`
	DurNS        int64 `json:"dur_ns"`
}

// DKVServerStats aggregates the server-side spans of one rank's DKV loop:
// where request time went (queue wait before pickup, handler execution,
// reply send) and which requesters consumed it.
type DKVServerStats struct {
	Rank        int           `json:"rank"`
	Requests    int           `json:"requests"`
	QueueNS     int64         `json:"queue_ns"`
	HandleNS    int64         `json:"handle_ns"`
	ReplyNS     int64         `json:"reply_ns"`
	ByRequester map[int]int64 `json:"by_requester,omitempty"`
}

// CritReport is the full analysis: per-iteration bounding ranks, per-rank
// critical-path attribution, and the server-side DKV service breakdown.
type CritReport struct {
	Ranks       int               `json:"ranks"`
	Iters       []IterCrit        `json:"iters"`
	Attr        []RankAttribution `json:"attribution"`
	DKVServers  []DKVServerStats  `json:"dkv_servers,omitempty"`
	TotalNS     int64             `json:"total_ns"`
	Verdict     int               `json:"verdict_rank"`
	VerdictFrac float64           `json:"verdict_frac"`
}

// isWaitCat reports whether a span category records blocked time.
func isWaitCat(cat string) bool { return cat == CatRecv || cat == CatDKVWait }

// AnalyzeCriticalPath runs the backward walk over every iteration present in
// the bundles and returns the aggregated report.
func AnalyzeCriticalPath(bundles []TraceBundle) *CritReport {
	rep := &CritReport{Verdict: -1}

	maxRank := -1
	for _, b := range bundles {
		if b.Rank > maxRank {
			maxRank = b.Rank
		}
	}
	if maxRank < 0 {
		return rep
	}
	rep.Ranks = maxRank + 1
	rep.Attr = make([]RankAttribution, rep.Ranks)
	for r := range rep.Attr {
		rep.Attr[r].Rank = r
	}

	// Index wait spans per rank (start-sorted) and iteration spans per iter.
	waits := make([][]Span, rep.Ranks)
	iterSpans := map[int][]Span{}
	for _, b := range bundles {
		for _, sp := range b.Spans {
			switch {
			case isWaitCat(sp.Cat):
				if sp.Rank >= 0 && sp.Rank < rep.Ranks {
					waits[sp.Rank] = append(waits[sp.Rank], sp)
				}
			case sp.Cat == CatIter && sp.Iter >= 0:
				iterSpans[sp.Iter] = append(iterSpans[sp.Iter], sp)
			case sp.Cat == CatDKVServe && sp.Parent == 0:
				// Parentless serve spans are the per-request roots; their
				// queue/handle/reply children share the requester peer.
				rep.noteServe(bundles, sp)
			}
		}
	}
	for r := range waits {
		sort.Slice(waits[r], func(i, j int) bool { return waits[r][i].StartNS < waits[r][j].StartNS })
	}

	iters := make([]int, 0, len(iterSpans))
	for it := range iterSpans {
		iters = append(iters, it)
	}
	sort.Ints(iters)

	for _, it := range iters {
		spans := iterSpans[it]
		wStart, wEnd := spans[0].StartNS, spans[0].End()
		bound := spans[0].Rank
		for _, sp := range spans[1:] {
			if sp.StartNS < wStart {
				wStart = sp.StartNS
			}
			if sp.End() > wEnd {
				wEnd = sp.End()
				bound = sp.Rank
			}
		}
		rep.Iters = append(rep.Iters, IterCrit{Iter: it, BoundingRank: bound, DurNS: wEnd - wStart})
		rep.TotalNS += wEnd - wStart
		rep.walk(waits, wStart, wEnd, bound)
	}

	var best int64 = -1
	for r := range rep.Attr {
		rep.Attr[r].TotalNS = rep.Attr[r].ComputeNS + rep.Attr[r].PeerImposedNS + rep.Attr[r].DKVServiceNS
		if rep.Attr[r].TotalNS > best {
			best = rep.Attr[r].TotalNS
			rep.Verdict = r
		}
	}
	if rep.TotalNS > 0 && rep.Verdict >= 0 {
		rep.VerdictFrac = float64(rep.Attr[rep.Verdict].TotalNS) / float64(rep.TotalNS)
	}
	return rep
}

// walk attributes one iteration window [wStart, wEnd] by stepping backward
// from the bounding rank's end. At each step the current rank r is either
// inside a wait span covering t (blame transfers) or computing (charge r).
// t strictly decreases except on recv-jumps, which the hop guard bounds.
func (rep *CritReport) walk(waits [][]Span, wStart, wEnd int64, bound int) {
	t, r, hops := wEnd, bound, 0
	charge := func(rank int, fromNS int64, kind string) {
		if fromNS < wStart {
			fromNS = wStart
		}
		if rank < 0 || rank >= len(rep.Attr) || fromNS >= t {
			return
		}
		d := t - fromNS
		switch kind {
		case "compute":
			rep.Attr[rank].ComputeNS += d
		case "imposed":
			rep.Attr[rank].PeerImposedNS += d
		case "dkv":
			rep.Attr[rank].DKVServiceNS += d
		}
	}
	for t > wStart {
		w, ok := coveringWait(waits[r], wStart, t)
		if ok {
			switch {
			case w.Cat == CatDKVWait:
				// Blocked on a DKV response: the serving rank owns this time.
				charge(w.Peer, w.StartNS, "dkv")
				t = maxInt64(w.StartNS, wStart)
				hops = 0
			case hops >= len(waits)+2:
				// Cycle backstop: stop following the chain, charge the peer.
				charge(w.Peer, w.StartNS, "imposed")
				t = maxInt64(w.StartNS, wStart)
				hops = 0
			default:
				// Blocked receiving from w.Peer: the peer's timeline explains
				// this moment — jump there without consuming time.
				r = w.Peer
				if r < 0 || r >= len(waits) {
					r = bound // defensive: malformed peer, fall back
				}
				hops++
			}
			continue
		}
		// No wait covers t: rank r was computing back to its previous wait.
		segStart := wStart
		if prev, ok := latestWaitBefore(waits[r], t); ok && prev.End() > segStart {
			segStart = prev.End()
		}
		if r == bound {
			charge(r, segStart, "compute")
		} else {
			charge(r, segStart, "imposed")
		}
		t = segStart
		hops = 0
		r = bound // after consuming a compute segment, resume from the bound rank's view
	}
}

// coveringWait returns rank spans' latest wait span with Start < t ≤ End
// that overlaps the window, if any.
func coveringWait(spans []Span, wStart, t int64) (Span, bool) {
	var best Span
	found := false
	for _, sp := range spans {
		if sp.StartNS >= t {
			break // start-sorted: nothing later can cover t
		}
		if sp.End() >= t && sp.End() > wStart {
			if !found || sp.StartNS > best.StartNS {
				best, found = sp, true
			}
		}
	}
	return best, found
}

// latestWaitBefore returns the wait span of rank r with the greatest end
// strictly before t, if any.
func latestWaitBefore(spans []Span, t int64) (Span, bool) {
	var best Span
	found := false
	for _, sp := range spans {
		if sp.StartNS >= t {
			break
		}
		if sp.End() < t {
			if !found || sp.End() > best.End() {
				best, found = sp, true
			}
		}
	}
	return best, found
}

// noteServe folds one server-side request root span (and its children) into
// the per-rank DKV server stats.
func (rep *CritReport) noteServe(bundles []TraceBundle, root Span) {
	var st *DKVServerStats
	for i := range rep.DKVServers {
		if rep.DKVServers[i].Rank == root.Rank {
			st = &rep.DKVServers[i]
			break
		}
	}
	if st == nil {
		rep.DKVServers = append(rep.DKVServers, DKVServerStats{Rank: root.Rank, ByRequester: map[int]int64{}})
		st = &rep.DKVServers[len(rep.DKVServers)-1]
	}
	st.Requests++
	if root.Peer != NoPeer {
		st.ByRequester[root.Peer] += root.DurNS
	}
	for _, b := range bundles {
		if b.Rank != root.Rank {
			continue
		}
		for _, sp := range b.Spans {
			if sp.Parent != root.ID || sp.Cat != CatDKVServe {
				continue
			}
			switch sp.Name {
			case "queue":
				st.QueueNS += sp.DurNS
			case "handle":
				st.HandleNS += sp.DurNS
			case "reply":
				st.ReplyNS += sp.DurNS
			}
		}
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func pct(part, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// String renders the report for terminal output. The verdict line is stable
// ("verdict: rank N ...") so scripts can grep it, mirroring the straggler
// verdict format from the event-stream analyzer.
func (rep *CritReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path over %d iterations, %d ranks, %.1f ms total\n",
		len(rep.Iters), rep.Ranks, float64(rep.TotalNS)/1e6)
	boundCount := map[int]int{}
	for _, ic := range rep.Iters {
		boundCount[ic.BoundingRank]++
	}
	for r := range rep.Attr {
		a := rep.Attr[r]
		fmt.Fprintf(&b, "  rank %d: %5.1f%% of critical path (compute %5.1f%%, imposed wait %5.1f%%, dkv service %5.1f%%), bounds %d iters\n",
			r, pct(a.TotalNS, rep.TotalNS), pct(a.ComputeNS, rep.TotalNS),
			pct(a.PeerImposedNS, rep.TotalNS), pct(a.DKVServiceNS, rep.TotalNS),
			boundCount[r])
	}
	for _, st := range rep.DKVServers {
		total := st.QueueNS + st.HandleNS + st.ReplyNS
		fmt.Fprintf(&b, "  dkv server rank %d: %d requests, queue %5.1f%% handle %5.1f%% reply %5.1f%%",
			st.Rank, st.Requests, pct(st.QueueNS, total), pct(st.HandleNS, total), pct(st.ReplyNS, total))
		reqs := make([]int, 0, len(st.ByRequester))
		for q := range st.ByRequester {
			reqs = append(reqs, q)
		}
		sort.Ints(reqs)
		for _, q := range reqs {
			fmt.Fprintf(&b, ", rank %d asked %.2f ms", q, float64(st.ByRequester[q])/1e6)
		}
		b.WriteByte('\n')
	}
	if rep.Verdict >= 0 {
		fmt.Fprintf(&b, "verdict: rank %d bounds %.1f%% of iteration critical-path time\n",
			rep.Verdict, 100*rep.VerdictFrac)
	} else {
		b.WriteString("verdict: no iteration spans found\n")
	}
	return b.String()
}
