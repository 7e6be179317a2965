// ocd-analyze inspects a graph and, optionally, scores a detected community
// cover against a ground-truth cover — the final step of the
// gen → train → analyze workflow:
//
//	ocd-gen -preset com-dblp-sim -out g.txt -groundtruth
//	ocd-train -graph g.txt -k 64 -iters 2000 -communities detected.txt
//	ocd-analyze -graph g.txt -detected detected.txt -truth g.txt.gt
//
// It also digests the one JSONL run log a run writes with -metrics-out: the
// event summary (per-stage times, DKV traffic, stragglers) and, from the
// log's span events, the critical path — the rank that bounds each
// iteration, its time split into compute, peer-imposed wait, and DKV
// service. -chrome renders the spans for Perfetto / chrome://tracing:
//
//	ocd-analyze run.jsonl                      # human-readable digest
//	ocd-analyze -json run.jsonl                # {"summary": ..., "critical_path": ...}
//	ocd-analyze -chrome run.trace.json run.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ocd-analyze:", err)
		os.Exit(1)
	}
}

// run is the whole program: stdin is read for a "-" log, the report goes to
// stdout, warnings and usage to stderr.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ocd-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		path     = fs.String("graph", "", "input SNAP edge-list (required unless a run log is given)")
		detected = fs.String("detected", "", "detected communities file (one community per line)")
		truth    = fs.String("truth", "", "ground-truth communities file")
		ccSample = fs.Int("clustering-samples", 2000, "vertices sampled for the clustering coefficient")
		asJSON   = fs.Bool("json", false, "print the run log's digest as one JSON object {summary, critical_path}")
		chrome   = fs.String("chrome", "", "render the run log's spans as a Chrome trace-event file (Perfetto) at this path")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ocd-analyze [flags] [run.jsonl | -]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil // usage already printed
	} else if err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("one run log at most, got %d arguments", fs.NArg())
	}
	if fs.NArg() == 1 {
		in := stdin
		if fs.Arg(0) != "-" {
			f, err := os.Open(fs.Arg(0))
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		if err := digestLog(in, *asJSON, *chrome, stdout, stderr); err != nil {
			return err
		}
		if *path == "" {
			return nil
		}
	}
	if *path == "" {
		return fmt.Errorf("-graph is required (or a run log)")
	}
	g, ids, err := graph.ReadSNAPFile(*path)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Fprintf(stdout, "mean degree %.2f, max degree %d, density %.6f\n",
		g.MeanDegree(), g.MaxDegree(), g.Density())
	_, components := graph.ConnectedComponents(g)
	fmt.Fprintf(stdout, "connected components: %d (largest %d vertices)\n",
		components, graph.LargestComponentSize(g))
	cc := graph.ClusteringCoefficient(g, *ccSample, mathx.NewRNG(1))
	fmt.Fprintf(stdout, "clustering coefficient (sampled): %.4f\n", cc)

	var det, gt *metrics.Cover
	if *detected != "" {
		det, err = metrics.ReadCoverFile(*detected, ids)
		if err != nil {
			return err
		}
		summarizeCover(stdout, "detected", det, g.NumVertices())
	}
	if *truth != "" {
		gt, err = metrics.ReadCoverFile(*truth, ids)
		if err != nil {
			return err
		}
		summarizeCover(stdout, "ground truth", gt, g.NumVertices())
	}
	if det != nil && gt != nil {
		fmt.Fprintf(stdout, "\nrecovery: F1 = %.4f, NMI = %.4f\n",
			metrics.F1Score(det, gt), metrics.NMI(det, gt))
	}
	return nil
}

func summarizeCover(w io.Writer, name string, c *metrics.Cover, n int) {
	total := 0
	largest := 0
	for _, m := range c.Members {
		total += len(m)
		if len(m) > largest {
			largest = len(m)
		}
	}
	fmt.Fprintf(w, "\n%s: %d communities, %d memberships (%.2f per vertex), largest %d\n",
		name, len(c.Members), total, float64(total)/float64(n), largest)
}

// digestLog reads a JSONL run log and prints its event Summary and, when the
// log carries spans, the per-iteration critical-path report: as one JSON
// object (asJSON) or as a short human-readable digest. A non-empty chrome
// path also renders the spans as a Chrome trace-event file.
func digestLog(in io.Reader, asJSON bool, chrome string, stdout, stderr io.Writer) error {
	evs, err := obs.ReadEvents(in)
	if err != nil {
		// A torn tail — the run died (or is still running) mid-write of the
		// last line — is expected for crash forensics, which is exactly when
		// this digest is most useful: warn and digest what did land.
		var torn *obs.TornTailError
		if !errors.As(err, &torn) {
			return err
		}
		fmt.Fprintf(stderr, "ocd-analyze: warning: %v (digesting the %d complete events)\n", torn, len(evs))
	}
	sum, err := obs.Summarize(evs)
	if err != nil {
		return err
	}
	trace := obs.TraceFromEvents(evs)
	var crit *obs.CritReport
	if len(trace) > 0 {
		crit = obs.AnalyzeCriticalPath(trace)
	}
	if chrome != "" {
		f, err := os.Create(chrome)
		if err != nil {
			return err
		}
		err = obs.WriteChromeTrace(f, trace)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if asJSON {
		buf, err := json.MarshalIndent(struct {
			Summary      *obs.Summary    `json:"summary"`
			CriticalPath *obs.CritReport `json:"critical_path,omitempty"`
		}{sum, crit}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(buf))
		return nil
	}
	printSummary(stdout, sum)
	if crit != nil {
		fmt.Fprint(stdout, crit.String())
	}
	return nil
}

// printSummary prints the human-readable digest of the log's events.
func printSummary(w io.Writer, sum *obs.Summary) {
	fmt.Fprintf(w, "telemetry: %d events, %d ranks, %d iterations, %.2fs elapsed\n",
		sum.Events, sum.Ranks, sum.Iterations, sum.ElapsedMS/1000)
	if sum.StartIter > 0 {
		fmt.Fprintf(w, "resumed run: iter events start at %d (restarted from a checkpoint)\n", sum.StartIter)
	}
	if sum.FinalPerplexity > 0 {
		fmt.Fprintf(w, "final perplexity: %.4f\n", sum.FinalPerplexity)
	}
	stages := make([]string, 0, len(sum.StageMSPerIter))
	for name := range sum.StageMSPerIter {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	fmt.Fprintf(w, "per-stage ms/iteration (max across ranks):\n")
	for _, name := range stages {
		fmt.Fprintf(w, "  %-22s %10.3f\n", name, sum.StageMSPerIter[name])
	}
	if sum.DKV.Requests > 0 {
		fmt.Fprintf(w, "DKV traffic: %d local keys, %d remote keys, %d requests, %.1f MB read, %.1f MB written\n",
			sum.DKV.LocalKeys, sum.DKV.RemoteKeys, sum.DKV.Requests,
			float64(sum.DKV.BytesRead)/1e6, float64(sum.DKV.BytesWritten)/1e6)
	}
	if lookups := sum.DKV.CacheHits + sum.DKV.CacheMisses; lookups > 0 {
		fmt.Fprintf(w, "hot-row cache: %d hits / %d lookups (%.1f%% hit rate), %d evictions, %d invalidations\n",
			sum.DKV.CacheHits, lookups, 100*sum.CacheHitRate,
			sum.DKV.CacheEvictions, sum.DKV.CacheInvalidations)
	}
	if len(sum.StageSkew) > 0 {
		names := make([]string, 0, len(sum.StageSkew))
		for name := range sum.StageSkew {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "stage skew (slowest rank vs median ms/iteration):\n")
		for _, name := range names {
			sk := sum.StageSkew[name]
			fmt.Fprintf(w, "  %-22s %10.3f vs %10.3f  skew %5.2f  slowest rank %d\n",
				name, sk.MaxMS, sk.MedianMS, sk.Skew, sk.SlowRank)
		}
	}
	if len(sum.PeerWaitMS) > 0 {
		fmt.Fprintf(w, "peer recv-wait imposed on others (ms):")
		for _, p := range sortedPeers(sum.PeerWaitMS) {
			fmt.Fprintf(w, " rank%d %.1f", p, sum.PeerWaitMS[p])
		}
		fmt.Fprintf(w, "; skew %.2f", sum.PeerSkew)
		if len(sum.Stragglers) > 0 {
			fmt.Fprintf(w, " — straggler:")
			for _, p := range sum.Stragglers {
				fmt.Fprintf(w, " rank %d", p)
			}
		}
		fmt.Fprintln(w)
	}
	if sum.Rebalances > 0 {
		fmt.Fprintf(w, "straggler mitigation: %d rebalances; final minibatch shares:", sum.Rebalances)
		for r, share := range sum.FinalWeights {
			fmt.Fprintf(w, " rank%d %.2f", r, share)
		}
		fmt.Fprintln(w)
	}
}

func sortedPeers(m map[int]float64) []int {
	peers := make([]int, 0, len(m))
	for p := range m {
		peers = append(peers, p)
	}
	sort.Ints(peers)
	return peers
}
