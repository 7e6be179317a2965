package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing must be NaN, not a number that passes for a measurement")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {40000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestSpread pins the acceptance statistic to Python's
// statistics.quantiles(values, n=4): for 1..10 that is [2.75, 5.5, 8.25].
func TestSpread(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// fakeClock advances only when told to: Sleep jumps, and ops advance it by
// their own service time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// TestOpenLoopCountsFromDueTime: a 5 ms stall on the second request of a
// 1 ms schedule makes the following requests late, and their latency says so
// — measured from when they were due, not from when they were sent.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	service := []time.Duration{100 * time.Microsecond, 5 * time.Millisecond,
		100 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond,
		100 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond}
	stop := make(chan struct{})
	st := openLoop(clk, start, 0, time.Millisecond, stop, func(i int) bool {
		clk.now = clk.now.Add(service[i])
		if i == len(service)-1 {
			close(stop)
		}
		return i != 3
	})
	if st.attempted() != len(service) || st.failed() != 1 {
		t.Fatalf("attempted %d failed %d, want %d and 1", st.attempted(), st.failed(), len(service))
	}
	// Request 0: due 0, sent 0, done 0.1 ms. Request 1: due 1, done 6 ms →
	// 5 ms. Request 2 was due at 2 ms but sent at 6 ms: late 4 ms, latency
	// 4.1 ms although its own service took 0.1 ms.
	wantLat := []float64{100, 5000, 4100, 3200, 2300, 1400, 500, 100}
	wantLate := []float64{0, 0, 4000, 3100, 2200, 1300, 400, 0}
	for i := range wantLat {
		if math.Abs(st.latencyUS[i]-wantLat[i]) > 1e-6 {
			t.Errorf("latency[%d] = %v µs, want %v", i, st.latencyUS[i], wantLat[i])
		}
		if math.Abs(st.lateUS[i]-wantLate[i]) > 1e-6 {
			t.Errorf("lateness[%d] = %v µs, want %v", i, st.lateUS[i], wantLate[i])
		}
	}
	// Within 1 ms: requests 0, 6 and 7; request 3 failed and misses any limit.
	if got, want := st.withinLimit(time.Millisecond), 3.0/8; got != want {
		t.Errorf("withinLimit = %v, want %v", got, want)
	}
	if got, want := st.withinLimit(time.Hour), 7.0/8; got != want {
		t.Errorf("withinLimit(∞) = %v, want %v: a failed request misses every limit", got, want)
	}
}

func TestOpenLoopStops(t *testing.T) {
	stop := make(chan struct{})
	n := 0
	st := openLoop(wallClock{}, time.Now(), 0, 100*time.Microsecond, stop, func(int) bool {
		if n++; n == 5 {
			close(stop)
		}
		return true
	})
	if st.attempted() != 5 {
		t.Errorf("attempted %d after stop at 5", st.attempted())
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 10}, {0, 3}, {8, 12}, {20, 30}, {-5, 1}}
	// Clipped to [0, 25): [0,3) ∪ [5,12) ∪ [20,25) = 3 + 7 + 5.
	if got := covered(ivs, 0, 25); got != 15 {
		t.Errorf("covered = %d, want 15", got)
	}
}

// TestSelfTimes: self time is duration minus what children cover; engine
// root spans are adopted by the innermost benchmark span containing them.
func TestSelfTimes(t *testing.T) {
	bench := obs.TraceBundle{Rank: 2, Spans: []obs.Span{
		{ID: 1, Name: "bench.pass", Cat: benchCat, Track: benchTrack, StartNS: 0, DurNS: 1000},
		{ID: 2, Parent: 1, Name: "bench.iter", Cat: benchCat, Track: benchTrack, StartNS: 100, DurNS: 400},
		{ID: 3, Parent: 2, Name: "call", Cat: benchCat, Track: benchTrack, StartNS: 150, DurNS: 300},
		{ID: 4, Name: "query", Cat: benchCat, Track: benchTrack + 1, StartNS: 0, DurNS: 50},
	}}
	eng := obs.TraceBundle{Rank: 0, Spans: []obs.Span{
		{ID: 1, Name: "iter", Cat: obs.CatIter, Track: obs.TrackEngine, StartNS: 160, DurNS: 280},
		{ID: 2, Parent: 1, Name: "update_phi", Cat: obs.CatStage, Track: obs.TrackEngine, StartNS: 170, DurNS: 200},
		{ID: 3, Parent: 1, Name: "update_pi", Cat: obs.CatStage, Track: obs.TrackEngine, StartNS: 370, DurNS: 60},
		// Overlaps update_phi: the union, not the sum, is subtracted.
		{ID: 4, Parent: 2, Name: "wait", Cat: obs.CatDKVWait, Track: obs.TrackEngine, StartNS: 180, DurNS: 100},
		{ID: 5, Parent: 2, Name: "wait", Cat: obs.CatDKVWait, Track: obs.TrackEngine, StartNS: 250, DurNS: 100},
		// Not on the engine track: never adopted.
		{ID: 6, Name: "serve", Cat: obs.CatDKVServe, Track: obs.TrackDKVServer, StartNS: 200, DurNS: 10},
	}}
	got := map[string]selfStat{}
	for _, s := range selfTimes([]obs.TraceBundle{bench, eng}) {
		got[s.Name] = s
	}
	for name, want := range map[string]int64{
		"bench.pass": 600,            // 1000 − iter 400
		"bench.iter": 100,            // 400 − call 300
		"call":       20,             // 300 − adopted engine iter 280
		"iter":       280 - 200 - 60, // − the two stages
		"update_phi": 200 - 170,      // − union of waits [180,350)
		"update_pi":  60,
		"wait":       200,
		"query":      50,
		"serve":      10,
	} {
		if got[name].SelfNS != want {
			t.Errorf("self(%s) = %d, want %d", name, got[name].SelfNS, want)
		}
	}
	if got["wait"].Count != 2 || got["wait"].TotalNS != 200 {
		t.Errorf("wait: %+v", got["wait"])
	}
}

func TestPlanBudget(t *testing.T) {
	for _, w := range workloadNames {
		for _, sec := range []float64{0.2, 1, 10, 60} {
			b := planBudget(w, sec)
			for _, share := range []float64{1, refShare, tracedShare} {
				sb := b.scaled(share)
				if sb.Iters < 2 {
					t.Errorf("%s %vs ×%v: %d iterations", w, sec, share, sb.Iters)
				}
				for _, every := range []int{sb.EvalEvery, sb.SealEvery, sb.PublishEvery} {
					if every > 0 && sb.Iters%every != 0 {
						t.Errorf("%s %vs ×%v: %d iterations not a multiple of %d", w, sec, share, sb.Iters, every)
					}
				}
				if w == wMmap && sb.Iters/sb.SealEvery != mmapSeals {
					t.Errorf("%s %vs ×%v: %d seals, want %d", w, sec, share, sb.Iters/sb.SealEvery, mmapSeals)
				}
			}
		}
	}
}

// TestConvergence: the pinned ppx_target is a check that can fail. A pass as
// long as the pin that never reaches the target is a failed operation; a
// shorter pass and a seed without a pin are not measured and read 0.
func TestConvergence(t *testing.T) {
	pin := ppxTargets[defaultSeed]
	pass := func(ppx ...float64) *passResult {
		pr := &passResult{Iters: 50 * len(ppx), EvalPpx: ppx}
		for i := range ppx {
			pr.EvalIter = append(pr.EvalIter, 50*(i+1))
		}
		for i := 1; i <= pr.Iters; i++ {
			pr.IterEnd = append(pr.IterEnd, time.Duration(i)*10*time.Millisecond)
		}
		return pr
	}
	above, below := pin.Target+1, pin.Target-0.1
	for _, c := range []struct {
		name              string
		seed              uint64
		pr                *passResult
		attempted, failed int
		iters             float64
	}{
		{"reached", defaultSeed, pass(above, above, below, above, below), 1, 0, 150},
		{"missed", defaultSeed, pass(above, above, above, above), 1, 1, 0},
		{"too short to tell", defaultSeed, pass(above, above), 0, 0, 0},
		{"reached early in a short pass", defaultSeed, pass(below), 1, 0, 50},
		{"no pin for the seed", 7, pass(above, below), 0, 0, 0},
	} {
		if c.name == "missed" && c.pr.Iters < pin.ByIter {
			t.Fatalf("test pass of %d iterations is shorter than the pin's %d", c.pr.Iters, pin.ByIter)
		}
		rp := &report{Values: results{}}
		convergence(rp, c.seed, c.pr)
		if rp.Attempted != c.attempted || rp.Failed != c.failed {
			t.Errorf("%s: attempted %d failed %d, want %d and %d", c.name, rp.Attempted, rp.Failed, c.attempted, c.failed)
		}
		if got := rp.Values["iters_to_ppx"].Value; got != c.iters {
			t.Errorf("%s: iters_to_ppx = %v, want %v", c.name, got, c.iters)
		}
		if got, want := rp.Values["time_to_ppx_s"].Value, c.iters*0.01; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: time_to_ppx_s = %v, want %v", c.name, got, want)
		}
	}
}

func TestReferenceTopK(t *testing.T) {
	got := referenceTopK([]float32{0.1, 0.4, 0.1, 0.4}, 3)
	want := []int{1, 3, 0}
	for i, m := range got {
		if m.Community != want[i] {
			t.Errorf("rank %d: community %d, want %d", i, m.Community, want[i])
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables of this package")

// TestContractMatchesTables: BENCHMARK.json at the repository root is what
// the tables in this package render to (go test -run ContractMatchesTables
// -update rewrites it), and obeys the limits of the builder's contract.
func TestContractMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw)) != strings.TrimSpace(string(want)) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with `go test -run ContractMatchesTables -update`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d, ok := findMetric("setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || len(workloadWhy[w]) == 0 || len(workloadWhy[w]) > 200 || strings.Contains(workloadWhy[w], "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w, len(workloadWhy[w]))
		}
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
}

// TestSmoke runs every workload in both modes at 2 % of the budget in this process
// and asserts that each emits exactly the names of its table — every metric
// defined on the workload measured, none that is not — and that every check
// passes. -short keeps to the g20k workloads.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadNames {
		if testing.Short() && (w == wMmap || w == wServe) {
			continue
		}
		for _, traced := range []bool{false, true} {
			rp, err := runChild(childOpts{Workload: w, Seed: defaultSeed, Seconds: refSeconds * 0.02,
				Trace: traced, OutDir: dir, Sha: "test"})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if rp.Failed != 0 || rp.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w, traced, rp.Failed, rp.Attempted, rp.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			vals, err := rp.Values.project(defs, w)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w, traced, err)
			}
			if len(vals) != len(defs) {
				t.Errorf("%s traced=%v: %d values for %d names", w, traced, len(vals), len(defs))
			}
			for _, d := range defs {
				if !traced && vals[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w, d.Name, vals[d.Name].Value)
				}
				if !d.appliesTo(w) && vals[d.Name].Value != 0 {
					t.Errorf("%s: %s = %v on a workload it is not defined on", w, d.Name, vals[d.Name].Value)
				}
			}
			if traced {
				for _, f := range []string{w + ".trace.json", w + ".self.txt"} {
					if _, err := os.Stat(filepath.Join(dir, "test", f)); err != nil {
						t.Errorf("%s: trace artefact: %v", w, err)
					}
				}
			}
		}
	}
}

// TestResultLine builds the binary and checks the shape of what a child
// prints: one "name value unit n=<samples>" line per metric, then the result
// object with exactly the contract's keys as the last line.
func TestResultLine(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ocd-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "--workload", wSeq, "--seed", "7", "--seconds", "0.2", "--trace", "0")
	cmd.Dir = t.TempDir() // out/ goes under the working directory
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result has no %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want exactly 4", len(res))
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	lineRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+ \S+ \S+ n=\d+( p\d+=\S+)?$`)
	for _, d := range endToEnd {
		if metrics[d.Name].Unit != d.Unit {
			t.Errorf("%s: unit %q, want %q", d.Name, metrics[d.Name].Unit, d.Unit)
		}
		n := 0
		for _, l := range lines[:len(lines)-1] {
			if strings.HasPrefix(l, d.Name+" ") {
				n++
				if !lineRE.MatchString(l) {
					t.Errorf("metric line %q does not match %v", l, lineRE)
				}
			}
		}
		if n != 1 {
			t.Errorf("%s printed %d times, want once", d.Name, n)
		}
	}
}
