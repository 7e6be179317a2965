package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Workload names; normative, later issues claim against them.
const (
	wSeq     = "seq_converge"
	wDist    = "dist_tcp"
	wDistHot = "dist_tcp_hot"
	wMmap    = "mmap_tiered"
	wServe   = "train_serve"
)

var workloadNames = []string{wSeq, wDist, wDistHot, wMmap, wServe}

// metricDef is one row of BENCHMARK.json. On lists the workloads the metric
// is measured on (nil: all five); elsewhere the layer is not on the
// workload's path and the metric is emitted as 0, because the builder's
// contract wants every name on every workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative difference that counts as a regression. For the
	// endToEnd rows it is BENCHMARK.json's bound and the driver enforces it;
	// for the issue's other end-to-end metrics, which the contract keeps in
	// perLayer, -repeat -check holds two runs of one seed to it on the
	// workloads the metric applies to. 0: not checked.
	Bound float64
	Abs   bool // Bound is an absolute difference, not a share
	On    []string
	// Exact marks a count that must repeat bit for bit between two runs of
	// the same code on the same seed (-repeat -check).
	Exact bool
}

func (m metricDef) appliesTo(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onSeq      = []string{wSeq}
	onDist     = []string{wDist, wDistHot}
	onDistOnly = []string{wDist}
	onHot      = []string{wDistHot}
	onMmap     = []string{wMmap}
	onServe    = []string{wServe}
	onConverge = []string{wSeq, wDist, wDistHot}
)

// endToEnd are the gated metrics: what a user of the system sees, measured
// in the timed pass with every tracer, recorder, sink and monitor off. The
// contract wants each of them on every workload and never 0, which is why
// the serving and convergence metrics of the issue's table sit in perLayer
// (see README, "Departures from the issue").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "iter_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "train_iters_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
}

// perLayer are the metrics the driver does not gate, one layer (= package)
// per prefix; proc is the Go runtime of the child and bench the benchmark
// itself. The unprefixed names are the issue's end-to-end metrics that cannot
// be emitted on every workload or are 0 by design; their bounds are the
// issue's, widened where README's Repeatability table says so.
var perLayer = []metricDef{
	{Name: "time_to_ppx_s", Unit: "s", Better: "lower", On: onConverge, Bound: 0.15},
	{Name: "iters_to_ppx", Unit: "iterations", Better: "lower", On: onConverge, Exact: true},
	{Name: "final_ppx", Unit: "perplexity", Better: "lower", Exact: true},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "query_p50_us", Unit: "us", Better: "lower", On: onServe, Bound: 0.1},
	{Name: "query_p99_us", Unit: "us", Better: "lower", On: onServe, Bound: 0.3},
	{Name: "query_within_limit_frac", Unit: "ratio", Better: "higher", On: onServe, Bound: 0.01, Abs: true},
	{Name: "flip_ms", Unit: "ms", Better: "lower", On: onServe, Bound: 0.1},
	{Name: "publish_stall_ms", Unit: "ms", Better: "lower", On: onServe, Bound: 0.1},

	{Name: "core.update_phi_ns_per_vertex", Unit: "ns", Better: "lower", On: onSeq},
	{Name: "core.phi_compute_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phi_load_pi_ms", Unit: "ms", Better: "lower"},
	{Name: "core.load_over_compute", Unit: "ratio", Better: "lower"},
	{Name: "core.update_pi_ms", Unit: "ms", Better: "lower"},
	{Name: "core.theta_ms", Unit: "ms", Better: "lower"},
	{Name: "core.eval_ppx_ms", Unit: "ms", Better: "lower"},

	{Name: "sampling.draw_minibatch_ms", Unit: "ms", Better: "lower"},

	{Name: "store.local_read_rows_per_s", Unit: "1/s", Better: "higher", On: onSeq},
	{Name: "store.local_write_rows_per_s", Unit: "1/s", Better: "higher", On: onSeq},
	{Name: "store.mmap_read_rows_per_s", Unit: "1/s", Better: "higher", On: onMmap},
	{Name: "store.mmap_write_rows_per_s", Unit: "1/s", Better: "higher", On: onMmap},
	{Name: "store.tier_read_rows_per_s", Unit: "1/s", Better: "higher", On: onMmap},
	{Name: "store.tier_hot_hit_rate", Unit: "ratio", Better: "higher", On: onMmap},
	{Name: "store.mmap_seal_ms", Unit: "ms", Better: "lower", On: onMmap},
	{Name: "store.cache_hit_rate", Unit: "ratio", Better: "higher", On: onHot, Exact: true},
	{Name: "store.cache_evictions_per_iter", Unit: "count", Better: "lower", On: onHot, Exact: true},
	{Name: "store.cache_invalidations_per_iter", Unit: "count", Better: "lower", On: onHot, Exact: true},
	{Name: "store.snapshot_seal_ms", Unit: "ms", Better: "lower", On: onServe},

	{Name: "dkv.requests_per_iter", Unit: "count", Better: "lower", On: onDist, Exact: true},
	{Name: "dkv.bytes_read_per_iter", Unit: "B", Better: "lower", On: onDist, Exact: true},
	{Name: "dkv.bytes_written_per_iter", Unit: "B", Better: "lower", On: onDist, Exact: true},
	{Name: "dkv.remote_key_frac", Unit: "ratio", Better: "lower", On: onDist, Exact: true},
	{Name: "dkv.read_rtt_us_1row", Unit: "us", Better: "lower", On: onDistOnly},
	{Name: "dkv.read_rtt_us_512row", Unit: "us", Better: "lower", On: onDistOnly},
	{Name: "dkv.write_rtt_us_512row", Unit: "us", Better: "lower", On: onDistOnly},
	{Name: "dkv.read_mb_per_s", Unit: "MB/s", Better: "higher", On: onDistOnly},
	{Name: "dkv.bw_over_raw", Unit: "ratio", Better: "higher", On: onDistOnly},

	{Name: "cluster.barrier_us", Unit: "us", Better: "lower", On: onDistOnly},
	{Name: "cluster.allreduce_us", Unit: "us", Better: "lower", On: onDistOnly},
	{Name: "cluster.scatter_us", Unit: "us", Better: "lower", On: onDistOnly},
	{Name: "cluster.allgather_us", Unit: "us", Better: "lower", On: onDistOnly},

	{Name: "transport.tcp_pingpong_us", Unit: "us", Better: "lower", On: onDistOnly},
	{Name: "transport.tcp_stream_mb_per_s", Unit: "MB/s", Better: "higher", On: onDistOnly},
	{Name: "transport.msgs_per_iter", Unit: "count", Better: "lower", On: onDist, Exact: true},
	{Name: "transport.bytes_per_iter", Unit: "B", Better: "lower", On: onDist},
	{Name: "transport.recv_wait_ms_per_iter", Unit: "ms", Better: "lower", On: onDist},

	{Name: "engine.iter_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.deploy_minibatch_ms", Unit: "ms", Better: "lower", On: onDist},
	{Name: "engine.reshard_ms", Unit: "ms", Better: "lower", On: onDist},
	{Name: "engine.publish_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "engine.stage_cover_frac", Unit: "ratio", Better: "higher"},

	{Name: "dist.startup_ms", Unit: "ms", Better: "lower", On: onDist},
	{Name: "dist.rank_skew", Unit: "ratio", Better: "lower", On: onDist},
	{Name: "dist.critpath_compute_frac", Unit: "ratio", Better: "higher", On: onDist},
	{Name: "dist.critpath_peer_frac", Unit: "ratio", Better: "lower", On: onDist},
	{Name: "dist.critpath_dkv_frac", Unit: "ratio", Better: "lower", On: onDist},
	{Name: "dist.over_seq_x", Unit: "ratio", Better: "lower", On: onDist},

	{Name: "serve.topk_ns", Unit: "ns", Better: "lower", On: onServe},
	{Name: "serve.shared_ns", Unit: "ns", Better: "lower", On: onServe},
	{Name: "serve.members_ns", Unit: "ns", Better: "lower", On: onServe},
	{Name: "serve.index_build_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "serve.idle_query_p50_us", Unit: "us", Better: "lower", On: onServe},

	{Name: "proc.allocs_per_iter", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kib_per_iter", Unit: "KiB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.spans_per_iter", Unit: "count", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},

	{Name: "perfmodel.calibrate_s", Unit: "s", Better: "lower", On: onConverge},
	{Name: "perfmodel.seq_pred_over_meas", Unit: "ratio", Better: "higher", On: onSeq},
	{Name: "perfmodel.dist_pred_over_meas", Unit: "ratio", Better: "higher", On: onDistOnly},

	{Name: "bench.generator_late_p99_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "bench.loadavg_1m", Unit: "count", Better: "lower"},
}

// sample is one measured value with how many raw samples stand behind it and,
// for timings, the tail the guide asks to print beside the median.
type sample struct {
	Value float64
	N     int
	Tail  float64 // 0 when not a timing
	TailQ float64
}

// results collects what a child measured, by metric name.
type results map[string]sample

func (r results) set(name string, v float64, n int) { r[name] = sample{Value: v, N: n} }

// timing records the median of xs under name, with the highest percentile
// that has at least ten samples beyond it.
func (r results) timing(name string, xs []float64) {
	q := tailQuantile(len(xs))
	r[name] = sample{Value: median(xs), N: len(xs), Tail: quantile(xs, q), TailQ: q}
}

// project returns the values for one table, in table order. A metric the
// workload does not measure is 0; a metric it should measure but did not, or
// measured as a non-number, is an error (the run is then not correct).
func (r results) project(defs []metricDef, workload string) (map[string]sample, error) {
	out := make(map[string]sample, len(defs))
	var missing []string
	for _, d := range defs {
		s, ok := r[d.Name]
		switch {
		case !d.appliesTo(workload):
			if ok {
				missing = append(missing, d.Name+" (emitted on a workload it is not defined on)")
			}
			s = sample{}
		case !ok:
			missing = append(missing, d.Name+" (not measured)")
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			missing = append(missing, fmt.Sprintf("%s (= %v)", d.Name, s.Value))
			s.Value = 0
		}
		out[d.Name] = s
	}
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for name := range r {
		if !known[name] {
			missing = append(missing, name+" (not in any table)")
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return out, fmt.Errorf("metrics: %s", strings.Join(missing, "; "))
	}
	return out, nil
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
