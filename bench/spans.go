package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// benchCat marks the spans the benchmark records around its own calls into a
// layer, as opposed to the spans the engines emit when their tracing is on.
const benchCat = "bench"

// benchTrack is the Chrome-trace lane of the benchmark's spans; it only has
// to differ from the engines' tracks.
const benchTrack = 10

// spanner records the benchmark's own spans: one per call it makes into a
// layer, nested by the call structure, labelled with the training iteration.
// Spans live in an obs.Tracer's bounded in-memory buffer and are written at
// exit. A nil spanner is the timed pass: every method is a no-op.
type spanner struct {
	tr *obs.Tracer
}

// newSpanner returns a recorder whose bundle carries the given rank label;
// the benchmark uses the first rank number no engine rank has.
func newSpanner(rank int) *spanner {
	return &spanner{tr: obs.NewTracer(rank, 0)}
}

// start opens a span under the innermost open one and returns the function
// that closes it. iter < 0 means "no iteration".
func (s *spanner) start(name string, iter int) func() {
	if s == nil {
		return func() {}
	}
	id := s.tr.NewID()
	parent := s.tr.SetScope(id)
	begin := s.tr.Now()
	return func() {
		s.tr.Emit(obs.Span{
			ID: id, Parent: parent, Name: name, Cat: benchCat,
			Track: benchTrack, Peer: obs.NoPeer, Iter: iter,
			StartNS: begin, DurNS: s.tr.Now() - begin,
		})
		s.tr.SetScope(parent)
	}
}

// interval records an already measured interval (the distributed engine runs
// its iterations inside one call, so the benchmark learns their boundaries
// from hook timestamps after the fact).
func (s *spanner) interval(name string, iter int, startNS, endNS int64) {
	if s == nil {
		return
	}
	s.tr.Emit(obs.Span{
		ID: s.tr.NewID(), Parent: s.tr.Scope(), Name: name, Cat: benchCat,
		Track: benchTrack, Peer: obs.NoPeer, Iter: iter,
		StartNS: startNS, DurNS: endNS - startNS,
	})
}

// async records an interval measured on another goroutine (a load-generator
// connection): parentless and on a lane of its own, because it runs beside
// the training loop, not inside any of its spans.
func (s *spanner) async(name string, lane int, startNS, endNS int64) {
	if s == nil {
		return
	}
	s.tr.Emit(obs.Span{
		ID: s.tr.NewID(), Name: name, Cat: benchCat,
		Track: benchTrack + 1 + lane, Peer: obs.NoPeer, Iter: -1,
		StartNS: startNS, DurNS: endNS - startNS,
	})
}

func (s *spanner) bundle() obs.TraceBundle { return s.tr.Bundle() }

// selfStat is one row of the self-time table.
type selfStat struct {
	Name    string
	Count   int
	TotalNS int64 // sum of durations
	SelfNS  int64 // sum of durations minus the part child spans cover
}

// selfTimes computes, per span name, total and self time over every bundle.
// A span's self time is its duration minus the union of its children's
// intervals clipped to it. Children are the spans naming it as Parent within
// the same bundle; on top of that, every parentless engine-track span of an
// engine bundle is adopted by the innermost benchmark span that contains it,
// which is how time inside a call such as Sampler.TryStep is attributed to
// the engine's stages and the call's own remainder shows as loop overhead.
func selfTimes(bundles []obs.TraceBundle) []selfStat {
	type node struct {
		sp       obs.Span
		rank     int // the bundle's, which Tracer.Emit also stamps on the span
		children []int
	}
	var nodes []node
	byKey := map[[2]uint64]int{} // (rank, span id) → index
	for _, b := range bundles {
		for _, sp := range b.Spans {
			byKey[[2]uint64{uint64(b.Rank), uint64(sp.ID)}] = len(nodes)
			nodes = append(nodes, node{sp: sp, rank: b.Rank})
		}
	}
	var benchIdx []int
	for i := range nodes {
		if nodes[i].sp.Cat == benchCat {
			benchIdx = append(benchIdx, i)
		}
	}
	// Innermost first: a shorter containing span is a deeper one.
	sort.Slice(benchIdx, func(a, b int) bool {
		return nodes[benchIdx[a]].sp.DurNS < nodes[benchIdx[b]].sp.DurNS
	})
	for i := range nodes {
		sp := nodes[i].sp
		if sp.Parent != 0 {
			if p, ok := byKey[[2]uint64{uint64(nodes[i].rank), uint64(sp.Parent)}]; ok {
				nodes[p].children = append(nodes[p].children, i)
			}
			continue
		}
		if sp.Cat == benchCat || sp.Track != obs.TrackEngine {
			continue
		}
		for _, b := range benchIdx {
			host := nodes[b].sp
			if host.StartNS <= sp.StartNS && sp.End() <= host.End() {
				nodes[b].children = append(nodes[b].children, i)
				break
			}
		}
	}

	stats := map[string]*selfStat{}
	for i := range nodes {
		sp := nodes[i].sp
		st := stats[sp.Name]
		if st == nil {
			st = &selfStat{Name: sp.Name}
			stats[sp.Name] = st
		}
		st.Count++
		st.TotalNS += sp.DurNS
		ivs := make([][2]int64, 0, len(nodes[i].children))
		for _, c := range nodes[i].children {
			ivs = append(ivs, [2]int64{nodes[c].sp.StartNS, nodes[c].sp.End()})
		}
		st.SelfNS += sp.DurNS - covered(ivs, sp.StartNS, sp.End())
	}
	out := make([]selfStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNS != out[j].SelfNS {
			return out[i].SelfNS > out[j].SelfNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSelfTable renders the self-time table as text.
func writeSelfTable(w io.Writer, rows []selfStat) {
	fmt.Fprintf(w, "%-36s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %8d %14.3f %14.3f\n", r.Name, r.Count,
			float64(r.TotalNS)/1e6, float64(r.SelfNS)/1e6)
	}
}

// writeTraceArtefacts writes bench/out/<sha>/<workload>.trace.json (Chrome
// trace-event JSON of every bundle, the benchmark's included) and the
// matching <workload>.self.txt table. outRoot is the benchmark's own out/
// directory.
func writeTraceArtefacts(outRoot, sha, workload string, bundles []obs.TraceBundle) (string, error) {
	dir := filepath.Join(outRoot, sha)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tracePath := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return "", err
	}
	if err := obs.WriteChromeTrace(f, bundles); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", tracePath, err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	var sb strings.Builder
	writeSelfTable(&sb, selfTimes(bundles))
	if err := os.WriteFile(filepath.Join(dir, workload+".self.txt"), []byte(sb.String()), 0o644); err != nil {
		return "", err
	}
	return tracePath, nil
}
