// Command bench is the repository's one benchmark: five named workloads over
// the whole stack, end-to-end metrics from a timed pass with all tracing off,
// per-layer metrics from a separate traced pass and direct probes of each
// layer's exported functions. See README.md for what each number means and
// BENCHMARK.json (at the repository root) for the contract.
//
//	bench                                  every workload, both modes, one JSON document
//	bench -repeat 2 -check                 the same N times; fail if two runs disagree
//	bench -workload W -seed N -seconds S -trace 0|1
//	                                       one workload in one mode; last line is the result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+") in this process and print its result as the last line")
		seed     = flag.Uint64("seed", defaultSeed, "seed of internal/gen and graph.Split; the only input besides -seconds")
		seconds  = flag.Float64("seconds", refSeconds, "budget: iteration counts are sized so that the timed pass lasts about this long on the reference host")
		trace    = flag.Int("trace", 0, "with -workload: 0 = timed pass and end-to-end metrics, 1 = traced pass, probes and per-layer metrics")
		repeat   = flag.Int("repeat", 0, "without -workload: run the whole benchmark this many times (default 1, with -check 2)")
		check    = flag.Bool("check", false, "with -repeat: exit non-zero if two runs differ by more than a metric's bound, or at all on an exact count")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds %v, need a positive budget", *seconds))
	}

	if *workload != "" {
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace %d, need 0 or 1", *trace))
		}
		os.Exit(childMain(childOpts{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			OutDir: "out", Sha: gitSHA(),
		}))
	}
	if *repeat <= 0 {
		*repeat = 1
		if *check {
			*repeat = 2
		}
	}
	os.Exit(parentMain(*seed, *seconds, *repeat, *check))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// result is the last line a child prints: the builder's contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childMain runs one workload in one mode, prints one line per metric
// ("name value unit n=<samples>") and the result line, and returns the exit
// code: 0 only when every check passed.
func childMain(o childOpts) int {
	rp, err := runChild(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.Workload, err)
		return 2
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	vals, err := rp.Values.project(defs, o.Workload)
	if err != nil {
		rp.Problems = append(rp.Problems, err.Error())
	}
	res := result{
		Correct:   rp.Failed == 0 && err == nil,
		Attempted: rp.Attempted,
		Failed:    rp.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		s := vals[d.Name]
		res.Metrics[d.Name] = metricValue{Value: s.Value, Unit: d.Unit}
		if !d.appliesTo(o.Workload) {
			continue
		}
		line := fmt.Sprintf("%s %v %s n=%d", d.Name, s.Value, d.Unit, s.N)
		if s.TailQ > 0.5 {
			line += fmt.Sprintf(" p%.0f=%v", s.TailQ*100, s.Tail)
		}
		fmt.Println(line)
	}
	if len(rp.Series) > 0 {
		fmt.Println("ppx_series", strings.Join(rp.Series, " "))
	}
	for _, p := range rp.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", o.Workload, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadDoc is one workload's part of the parent's document.
type workloadDoc struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	series    []string
}

// runDoc is the parent's output: one whole run of the benchmark.
type runDoc struct {
	Host      hostInfo               `json:"host"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Noisy     bool                   `json:"noisy"`
	Units     map[string]string      `json:"units"`
	Workloads map[string]workloadDoc `json:"workloads"`
}

// parentMain runs no workload itself: it re-executes its own binary once per
// workload and mode, so that peak RSS, GC state and page-cache effects belong
// to one workload, and merges the children's result lines.
func parentMain(seed uint64, seconds float64, repeat int, check bool) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	// Taken once, before any child runs: later the load is the benchmark's own.
	host := fingerprint(gitSHA())
	var docs []runDoc
	ok := true
	for i := 0; i < repeat; i++ {
		doc := runDoc{
			Host: host, Seed: seed, Seconds: seconds,
			Units: map[string]string{}, Workloads: map[string]workloadDoc{},
		}
		doc.Noisy = host.LoadAvg1 > float64(host.NProc)/2
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			doc.Units[d.Name] = d.Unit
		}
		for _, w := range workloadNames {
			wd := workloadDoc{Correct: true}
			for _, mode := range []int{0, 1} {
				res, series, err := spawn(self, w, seed, seconds, mode)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s -trace %d: %v\n", w, mode, err)
					ok = false
					wd.Correct = false
					continue
				}
				wd.Correct = wd.Correct && res.Correct
				wd.Attempted += res.Attempted
				wd.Failed += res.Failed
				vals := make(map[string]float64, len(res.Metrics))
				for name, mv := range res.Metrics {
					if d, _ := findMetric(name); d.appliesTo(w) {
						vals[name] = mv.Value
					}
				}
				if mode == 0 {
					wd.EndToEnd, wd.series = vals, series
				} else {
					wd.PerLayer = vals
				}
			}
			ok = ok && wd.Correct
			doc.Workloads[w] = wd
		}
		if err := sameSeries(doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
			ok = false
		}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		docs = append(docs, doc)
	}
	if check && !agree(docs) {
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// spawn runs one child and parses its output: the result line and the
// perplexity series.
func spawn(self, workload string, seed uint64, seconds float64, mode int) (*result, []string, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(mode))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var series []string
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "ppx_series "); ok {
			series = strings.Fields(rest)
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, nil, runErr
		}
		return nil, nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, series, nil
}

// sameSeries is the cross-workload check: the perplexity series of
// seq_converge, dist_tcp and dist_tcp_hot are equal bit for bit on their
// common prefix (the budgets differ, the arithmetic must not).
func sameSeries(doc runDoc) error {
	base := doc.Workloads[wSeq].series
	for _, w := range []string{wDist, wDistHot} {
		other := doc.Workloads[w].series
		n := min(len(base), len(other))
		if n == 0 {
			return fmt.Errorf("no perplexity series to compare %s with %s", wSeq, w)
		}
		for i := 0; i < n; i++ {
			if base[i] != other[i] {
				return fmt.Errorf("perplexity series of %s and %s differ at evaluation %d: %s vs %s", wSeq, w, i+1, base[i], other[i])
			}
		}
	}
	return nil
}

// agree prints, per workload, the values over the runs of every metric that
// has a bound or is an exact count, and reports whether every pair of runs
// is within the bound (for an exact count: identical).
func agree(docs []runDoc) bool {
	ok := true
	check := func(w string, d metricDef, table func(workloadDoc) map[string]float64) {
		if !d.appliesTo(w) || (d.Bound == 0 && !d.Exact) {
			return
		}
		var xs []float64
		for _, doc := range docs {
			xs = append(xs, table(doc.Workloads[w])[d.Name])
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs[1:] {
			lo, hi = min(lo, x), max(hi, x)
		}
		gap, kind := hi-lo, "max-min"
		if !d.Abs && !d.Exact && lo != 0 {
			gap, kind = gap/math.Abs(lo), "(max-min)/min"
		}
		verdict := "ok"
		if gap > d.Bound {
			verdict = fmt.Sprintf("DIFFERS by more than %v", d.Bound)
			ok = false
		}
		fmt.Fprintf(os.Stderr, "check %-14s %-24s %v %s %s=%.4g spread=%.4g %s\n",
			w, d.Name, xs, d.Unit, kind, gap, spread(xs), verdict)
	}
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			check(w, d, func(wd workloadDoc) map[string]float64 { return wd.EndToEnd })
		}
		for _, d := range perLayer {
			check(w, d, func(wd workloadDoc) map[string]float64 { return wd.PerLayer })
		}
	}
	return ok
}
