package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/store"
)

// setupRepeats is how many times a timed run sets the workload up; setup_s is
// the median, and the first one is the one the timed pass runs on.
const setupRepeats = 3

// Pass lengths of a traced run, as shares of the timed pass's budget: a
// reference pass with tracing off (counts, tails, allocation, and the
// baseline of obs.trace_overhead_frac), then the traced pass.
const (
	refShare    = 0.5
	tracedShare = 0.25
)

// childOpts are one child's inputs: -seed and the budget are the only ones
// that shape a measurement.
type childOpts struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	OutDir   string // trace artefacts and scratch stores: out/ under the working directory, bench/
	Sha      string
}

// report is what a child hands to main for printing.
type report struct {
	Attempted int
	Failed    int
	Problems  []string // every failed check, for stderr
	Values    results
	Series    []string // "<iter>:<float64 bits>" per evaluation, for cross-workload equality

	// seqRef is the single-node reference pass the distributed workloads
	// verify against; the dist.over_seq_x probe reuses it.
	seqRef *passResult
}

// check counts one verified operation.
func (rp *report) check(ok bool, format string, args ...any) {
	rp.Attempted++
	if !ok {
		rp.Failed++
		rp.Problems = append(rp.Problems, fmt.Sprintf(format, args...))
	}
}

// instance is a built workload: run executes one pass, close releases what
// set-up created. ready finishes whatever part of set-up a pass would
// otherwise do itself and returns the instant set-up was complete; only the
// timed run, which reports setup_s, calls it.
type instance interface {
	ready() (time.Time, error)
	run(b budget, seed uint64, sp *spanner) (*passResult, error)
	close()
}

func (li *localInst) ready() (time.Time, error) { return time.Now(), nil }

// distInst holds no resources: every pass dials its own mesh.
type distInst struct {
	in  *inputs
	opt dist.Options
}

func (di *distInst) ready() (time.Time, error) { return warmDist(di.in, di.opt) }
func (di *distInst) run(b budget, _ uint64, sp *spanner) (*passResult, error) {
	return runDist(di.in, di.opt, b, sp != nil, sp)
}
func (di *distInst) close() {}

func workloadGraph(workload string) graphSpec {
	switch workload {
	case wMmap:
		return g200k
	case wServe:
		return g100k
	}
	return g20k
}

// build sets one workload up on in.
func build(workload string, in *inputs, b budget, traced bool, tmpRoot string) (instance, error) {
	switch workload {
	case wSeq, wMmap, wServe:
		kind := map[string]localKind{wSeq: kindSeq, wMmap: kindMmap, wServe: kindServe}[workload]
		li, err := buildLocal(kind, in, b, traced, tmpRoot)
		if err != nil {
			return nil, err // not li: a nil *localInst in an instance is not nil
		}
		return li, nil
	case wDist, wDistHot:
		return &distInst{in: in, opt: distOptions(workload == wDistHot)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
}

// settle collects set-up's garbage and returns it to the OS, so that every
// pass starts from the live heap alone: GC pacing and the resident set then
// depend on the pass, not on when the collector last happened to run.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runChild measures one workload in one mode.
func runChild(o childOpts) (*report, error) {
	tmpRoot := filepath.Join(o.OutDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	rp := &report{Values: results{}}
	b := planBudget(o.Workload, o.Seconds)
	if o.Trace {
		return rp, tracedRun(o, rp, b, tmpRoot)
	}
	return rp, timedRun(o, rp, b, tmpRoot)
}

// timedRun is -trace 0: set-up (timed), the timed pass with every tracer,
// recorder, sink and monitor off, the correctness checks, the repeats of
// set-up, and the end-to-end metrics.
func timedRun(o childOpts, rp *report, b budget, tmpRoot string) error {
	setup := func() (*inputs, instance, float64, error) {
		t0 := time.Now()
		in, err := makeInputs(workloadGraph(o.Workload), o.Seed)
		if err != nil {
			return nil, nil, 0, err
		}
		inst, err := build(o.Workload, in, b, false, tmpRoot)
		if err != nil {
			return nil, nil, 0, err
		}
		ready, err := inst.ready()
		if err != nil {
			inst.close()
			return nil, nil, 0, err
		}
		return in, inst, ready.Sub(t0).Seconds(), nil
	}
	in, inst, first, err := setup()
	if err != nil {
		return err
	}
	settle()
	pr, err := inst.run(b, o.Seed, nil)
	if err == nil {
		err = verify(o, rp, in, inst, pr, b)
	}
	inst.close()
	if err != nil {
		return err
	}

	// The remaining set-ups only feed the median of setup_s; they come
	// after the pass so that it runs in a process as fresh as a user's.
	setups := []float64{first}
	for i := 1; i < setupRepeats; i++ {
		in, inst = nil, nil
		settle()
		_, again, s, err := setup()
		if err != nil {
			return err
		}
		again.close()
		setups = append(setups, s)
	}

	r := rp.Values
	r.timing("setup_s", setups)
	r.timing("iter_ms", pr.IterMS)
	r.set("train_iters_per_s", float64(pr.Iters)/pr.Wall.Seconds(), pr.Iters)
	return nil
}

// verify runs the correctness checks on a finished pass and fills the
// report's counts. An error is a failure of the harness itself.
func verify(o childOpts, rp *report, in *inputs, inst instance, pr *passResult, b budget) error {
	rp.Attempted += pr.Iters // an iteration that errs aborts the run before this point
	for i, it := range pr.EvalIter {
		rp.Series = append(rp.Series, fmt.Sprintf("%d:%016x", it, math.Float64bits(pr.EvalPpx[i])))
	}

	state := pr.State
	if li, ok := inst.(*localInst); ok && li.tier != nil {
		var err error
		if state, err = materialise(li.tier, pr.State); err != nil {
			return err
		}
	}
	err := state.Validate()
	rp.check(err == nil, "final state invalid: %v", err)

	// Perplexity sanity: finite, and not blown up against the untrained
	// model on the same held-out set (see README on why not "below the
	// first evaluation").
	fresh, err := core.NewState(in.Cfg, in.Train.NumVertices())
	if err != nil {
		return err
	}
	untrained := core.Perplexity(fresh, in.Held, in.Cfg.Delta, 2)
	for i, p := range pr.EvalPpx {
		rp.check(!math.IsNaN(p) && !math.IsInf(p, 0) && p >= 1 && p <= 1.5*untrained,
			"perplexity %v at iteration %d outside [1, 1.5×%v]", p, pr.EvalIter[i], untrained)
	}

	switch o.Workload {
	case wSeq, wDist, wDistHot:
		convergence(rp, o.Seed, pr)
	}
	switch o.Workload {
	case wDist, wDistHot:
		// Same arithmetic as the single-node sampler: the perplexity series
		// must agree bit for bit. The reference covers the first evaluations;
		// the parent compares the full common prefix of workloads 1–3.
		ref, err := seqReference(in, b)
		if err != nil {
			return err
		}
		rp.seqRef = ref
		for i, p := range ref.EvalPpx {
			same := i < len(pr.EvalPpx) && pr.EvalIter[i] == ref.EvalIter[i] &&
				math.Float64bits(pr.EvalPpx[i]) == math.Float64bits(p)
			rp.check(same, "perplexity at iteration %d differs from the sequential sampler's", ref.EvalIter[i])
		}
	case wMmap:
		li := inst.(*localInst)
		err := li.checkMmapDurable(len(pr.SealMS), o.Seed)
		rp.check(err == nil, "mmap store: %v", err)
	case wServe:
		q := pr.Queries
		rp.Attempted += q.attempted()
		rp.Failed += q.failed()
		if q.failed() > 0 {
			rp.Problems = append(rp.Problems, fmt.Sprintf("%d of %d queries failed (%d with a snapshot version going backwards)",
				q.failed(), q.attempted(), pr.VersionErrors))
		}
	}
	return nil
}

// seqReference runs the single-node sampler (Threads = 2, as seq_converge)
// over the first two evaluations of b.
func seqReference(in *inputs, b budget) (*passResult, error) {
	rb := budget{Iters: 2 * b.EvalEvery, EvalEvery: b.EvalEvery}
	li, err := buildLocal(kindSeq, in, rb, false, "")
	if err != nil {
		return nil, err
	}
	defer li.close()
	return li.run(rb, 0, nil)
}

// materialise reads every row of ps into a full core.State around shell's θ
// and β, so State.Validate can run on an out-of-core model.
func materialise(ps store.PiStore, shell *core.State) (*core.State, error) {
	n, k := ps.NumRows(), ps.K()
	st := &core.State{N: n, K: k, Pi: make([]float32, n*k), PhiSum: make([]float64, n),
		Theta: shell.Theta, Beta: shell.Beta}
	const batch = 8192
	ids := make([]int32, 0, batch)
	var rows store.Rows
	for lo := 0; lo < n; lo += batch {
		ids = ids[:0]
		for a := lo; a < min(lo+batch, n); a++ {
			ids = append(ids, int32(a))
		}
		if err := ps.ReadRows(ids, &rows); err != nil {
			return nil, err
		}
		copy(st.Pi[lo*k:], rows.Pi)
		copy(st.PhiSum[lo:], rows.PhiSum)
	}
	return st, nil
}

// sampleIDs draws count row ids uniformly from [0, n), seeded.
func sampleIDs(n, count int, seed uint64) []int32 {
	rng := mathx.NewRNG(seed)
	ids := make([]int32, count)
	for i := range ids {
		ids[i] = int32(rng.Intn(n))
	}
	return ids
}

// tracedRun is -trace 1: one set-up, the reference pass (tracing off), the
// traced pass with the engines' tracers and the benchmark's own spans on,
// the trace artefacts, then the layer probes.
func tracedRun(o childOpts, rp *report, b budget, tmpRoot string) error {
	in, err := makeInputs(workloadGraph(o.Workload), o.Seed)
	if err != nil {
		return err
	}
	refB, trB := b.scaled(refShare), b.scaled(tracedShare)

	inst, err := build(o.Workload, in, refB, false, tmpRoot)
	if err != nil {
		return err
	}
	defer inst.close()
	settle()
	ref, err := inst.run(refB, o.Seed, nil)
	if err != nil {
		return err
	}
	// Before anything else allocates: one set-up and one untraced pass.
	peakMiB, err := peakRSSMiB()
	if err != nil {
		return err
	}
	rp.Values.set("peak_rss_mib", peakMiB, 1)
	if err := verify(o, rp, in, inst, ref, refB); err != nil {
		return err
	}

	tinst, err := build(o.Workload, in, trB, true, tmpRoot)
	if err != nil {
		return err
	}
	sp := newSpanner(distRanks) // the first rank number no engine rank has
	settle()
	tr, err := tinst.run(trB, o.Seed, sp)
	tinst.close()
	if err != nil {
		return err
	}
	bundles := append(tr.Bundles, sp.bundle())
	if _, err := writeTraceArtefacts(o.OutDir, o.Sha, o.Workload, bundles); err != nil {
		return err
	}

	r := rp.Values
	layerMetrics(r, o.Workload, ref, tr, bundles)
	if err := probes(r, o, in, inst, ref, rp.seqRef); err != nil {
		return err
	}
	load, err := loadAvg1()
	if err != nil {
		return err
	}
	r.set("bench.loadavg_1m", load, 1)
	r.set("failed_frac", float64(rp.Failed)/float64(max(rp.Attempted, 1)), rp.Attempted)
	return nil
}

// perIter is a stage's mean milliseconds per iteration.
func perIter(pr *passResult, stage string) float64 {
	return ms(pr.Phases[stage]) / float64(pr.Iters)
}

// layerMetrics fills every per-layer metric that comes from the two passes:
// T metrics from the traced pass via what the engines return, counts and
// tails from the reference pass.
func layerMetrics(r results, workload string, ref, tr *passResult, bundles []obs.TraceBundle) {
	n := tr.Iters
	r.set("core.phi_compute_ms", perIter(tr, engine.PhaseComputePhi), n)
	r.set("core.phi_load_pi_ms", perIter(tr, engine.PhaseLoadPi), n)
	r.set("core.load_over_compute", float64(tr.Phases[engine.PhaseLoadPi])/float64(tr.Phases[engine.PhaseComputePhi]), n)
	r.set("core.update_pi_ms", perIter(tr, engine.PhaseUpdatePi), n)
	r.set("core.theta_ms", perIter(tr, engine.PhaseUpdateBetaTheta), n)
	r.timing("core.eval_ppx_ms", ref.EvalMS)
	r.set("final_ppx", ref.FinalPpx, len(ref.EvalPpx))
	r.set("sampling.draw_minibatch_ms", perIter(tr, engine.PhaseDrawMinibatch), n)

	r.set("engine.iter_p95_ms", quantile(ref.IterMS, 0.95), len(ref.IterMS))
	var iterWall time.Duration
	for _, d := range ref.IterMS {
		iterWall += time.Duration(d * float64(time.Millisecond))
	}
	if ref.Dist != nil {
		// Iteration boundaries of a distributed pass include the
		// evaluations; take them out of the wall the stages are held to.
		iterWall -= ref.Phases[engine.PhasePerplexity]
	}
	r.set("engine.stage_cover_frac", stageCover(ref.Phases, iterWall), ref.Iters)

	r.set("proc.allocs_per_iter", float64(ref.Mem.Mallocs)/float64(ref.Iters), ref.Iters)
	r.set("proc.alloc_kib_per_iter", float64(ref.Mem.AllocBytes)/1024/float64(ref.Iters), ref.Iters)
	r.set("proc.gc_cycles", float64(ref.Mem.GCCycles), 1)
	r.set("proc.gc_pause_total_ms", float64(ref.Mem.PauseNS)/1e6, int(ref.Mem.GCCycles))

	var spans, dropped int64
	for _, b := range bundles {
		spans += int64(len(b.Spans))
		dropped += b.Dropped
	}
	r.set("obs.trace_overhead_frac", median(tr.IterMS)/median(ref.IterMS)-1, n)
	r.set("obs.spans_per_iter", float64(spans)/float64(n), n)
	r.set("obs.spans_dropped", float64(dropped), 1)

	switch workload {
	case wDist, wDistHot:
		distMetrics(r, workload, ref, tr)
	case wMmap:
		r.timing("store.mmap_seal_ms", ref.SealMS)
		ts := ref.TierStat
		r.set("store.tier_hot_hit_rate", float64(ts.HotHits)/float64(max(ts.HotHits+ts.HotMisses, 1)), int(ts.HotHits+ts.HotMisses))
	case wServe:
		q := ref.Queries
		r.timing("query_p50_us", q.latencyUS)
		r.set("query_p99_us", quantile(q.latencyUS, 0.99), len(q.latencyUS))
		r.set("query_within_limit_frac", q.withinLimit(time.Duration(queryLimitMS*float64(time.Millisecond))), q.attempted())
		r.set("bench.generator_late_p99_us", quantile(q.lateUS, 0.99), len(q.lateUS))
		r.timing("flip_ms", ref.FlipMS)
		r.set("publish_stall_ms", median(ref.PublishIterMS)-median(ref.PlainIterMS), len(ref.PublishIterMS))
		r.set("engine.publish_ms", ms(tr.Phases[engine.PhasePublish])/float64(max(len(tr.PublishIterMS), 1)), len(tr.PublishIterMS))
	}
}

// convergence checks a pass against the seed's pinned ppx_target and fills
// time_to_ppx_s and iters_to_ppx: the first evaluation at or below the
// target. Both read 0 on a seed without a pin and in a pass too short to
// reach it; a pass long enough that misses it is a failed operation.
func convergence(rp *report, seed uint64, pr *passResult) {
	r := rp.Values
	r.set("iters_to_ppx", 0, 0)
	r.set("time_to_ppx_s", 0, 0)
	pin, ok := ppxTargets[seed]
	if !ok {
		return
	}
	reached := false
	for i, p := range pr.EvalPpx {
		if p <= pin.Target {
			it := pr.EvalIter[i]
			r.set("iters_to_ppx", float64(it), len(pr.EvalPpx))
			r.set("time_to_ppx_s", pr.IterEnd[it-1].Seconds(), len(pr.EvalPpx))
			reached = true
			break
		}
	}
	if reached || pr.Iters >= pin.ByIter {
		rp.check(reached, "missed ppx_target %v in %d iterations (pinned: reached by iteration %d)", pin.Target, pr.Iters, pin.ByIter)
	}
}

// distMetrics fills the dkv, transport, engine and dist metrics a
// distributed pass returns: exact counts from the reference pass, stage and
// critical-path times from the traced one.
func distMetrics(r results, workload string, ref, tr *passResult) {
	res, iters := ref.Dist.Result, float64(ref.Iters)
	d := res.DKV
	r.set("dkv.requests_per_iter", float64(d.Requests)/iters, ref.Iters)
	r.set("dkv.bytes_read_per_iter", float64(d.BytesRead)/iters, ref.Iters)
	r.set("dkv.bytes_written_per_iter", float64(d.BytesWritten)/iters, ref.Iters)
	r.set("dkv.remote_key_frac", float64(d.RemoteKeys)/float64(max(d.RemoteKeys+d.LocalKeys, 1)), ref.Iters)
	c := res.Metrics.Counters
	r.set("transport.msgs_per_iter", float64(c[obs.CtrNetMsgsSent])/iters, ref.Iters)
	r.set("transport.bytes_per_iter", float64(c[obs.CtrNetBytesSent])/iters, ref.Iters)
	var wait float64
	for _, row := range res.Peers.RecvWaitMS {
		for _, w := range row {
			wait += w
		}
	}
	r.set("transport.recv_wait_ms_per_iter", wait/float64(res.Peers.Ranks)/iters, ref.Iters)
	if workload == wDistHot {
		r.set("store.cache_hit_rate", float64(d.CacheHits)/float64(max(d.CacheHits+d.CacheMisses, 1)), int(d.CacheHits+d.CacheMisses))
		r.set("store.cache_evictions_per_iter", float64(d.CacheEvictions)/iters, ref.Iters)
		r.set("store.cache_invalidations_per_iter", float64(d.CacheInvalidations)/iters, ref.Iters)
	}
	r.set("dist.startup_ms", ref.Dist.StartupMS, 1)

	r.set("engine.deploy_minibatch_ms", perIter(tr, engine.PhaseDeployMinibatch), tr.Iters)
	r.set("engine.reshard_ms", perIter(tr, engine.PhaseReshard), tr.Iters)
	tres := tr.Dist.Result
	var phi []float64
	for _, rank := range tres.RankPhases {
		phi = append(phi, float64(rank[engine.PhaseUpdatePhi]))
	}
	r.set("dist.rank_skew", quantile(phi, 1)/median(phi), len(phi))
	rep := obs.AnalyzeCriticalPath(tres.Trace)
	var compute, peer, dkvNS int64
	for _, a := range rep.Attr {
		compute += a.ComputeNS
		peer += a.PeerImposedNS
		dkvNS += a.DKVServiceNS
	}
	total := float64(max(rep.TotalNS, 1))
	r.set("dist.critpath_compute_frac", float64(compute)/total, len(rep.Iters))
	r.set("dist.critpath_peer_frac", float64(peer)/total, len(rep.Iters))
	r.set("dist.critpath_dkv_frac", float64(dkvNS)/total, len(rep.Iters))
}

// probes runs the workload's layer probes on the instance the reference pass
// trained.
func probes(r results, o childOpts, in *inputs, inst instance, ref, seqRef *passResult) error {
	measuredS := median(ref.IterMS) / 1e3
	switch o.Workload {
	case wSeq:
		li := inst.(*localInst)
		ps := store.NewLocal(li.s.State.Pi, li.s.State.PhiSum, in.Cfg.K, 2)
		ids, nodes, samples := minibatchReads(li.s)
		ns, err := probeUpdatePhi(li.s, ps, nodes, samples)
		if err != nil {
			return err
		}
		r.set("core.update_phi_ns_per_vertex", ns, probeRounds)
		reads, err := probeStoreReads(ps, ids)
		if err != nil {
			return err
		}
		r.set("store.local_read_rows_per_s", reads, probeRounds)
		writes, err := probeStoreWrites(ps, nodes)
		if err != nil {
			return err
		}
		r.set("store.local_write_rows_per_s", writes, probeRounds)
		m := calibrate(r)
		r.set("perfmodel.seq_pred_over_meas", perfmodel.SingleNode(m, perfWorkload(in, len(nodes)), 2).Total/measuredS, 1)

	case wDist, wDistHot:
		// dist.over_seq_x: the same problem on the same two cores through
		// the single-node sampler, measured in this run.
		r.set("dist.over_seq_x", median(ref.IterMS)/median(seqRef.IterMS), len(seqRef.IterMS))
		m := calibrate(r)
		if o.Workload == wDistHot {
			break
		}
		mp, err := probeMesh(in.Train.NumVertices(), in.Cfg.K)
		if err != nil {
			return err
		}
		r.set("transport.tcp_pingpong_us", mp.PingPongUS, probeRounds)
		r.set("transport.tcp_stream_mb_per_s", mp.StreamMBps, probeRounds)
		r.set("dkv.read_rtt_us_1row", mp.Read1US, probeRounds)
		r.set("dkv.read_rtt_us_512row", mp.Read512US, probeRounds)
		r.set("dkv.write_rtt_us_512row", mp.Write512US, probeRounds)
		r.set("dkv.read_mb_per_s", mp.ReadMBps, probeRounds)
		r.set("dkv.bw_over_raw", mp.ReadMBps/mp.StreamMBps, probeRounds)
		r.set("cluster.barrier_us", mp.BarrierUS, probeRounds)
		r.set("cluster.allreduce_us", mp.AllReduceUS, probeRounds)
		r.set("cluster.scatter_us", mp.ScatterUS, probeRounds)
		r.set("cluster.allgather_us", mp.GatherUS, probeRounds)
		nodes := 2 * minibatchM // an upper bound; the model only needs the scale
		est := perfmodel.IterationThreads(m, mp.netModel(), perfWorkload(in, nodes), distRanks, 1, true)
		r.set("perfmodel.dist_pred_over_meas", est.Total/measuredS, 1)

	case wMmap:
		li := inst.(*localInst)
		ids, nodes, _ := minibatchReads(li.s)
		tier, err := probeStoreReads(li.tier, ids)
		if err != nil {
			return err
		}
		r.set("store.tier_read_rows_per_s", tier, probeRounds)
		base, err := probeStoreReads(li.mm, ids)
		if err != nil {
			return err
		}
		r.set("store.mmap_read_rows_per_s", base, probeRounds)
		// Last: this writes to the base tier behind the TieredStore's back,
		// which nothing reads afterwards.
		writes, err := probeStoreWrites(li.mm, nodes)
		if err != nil {
			return err
		}
		r.set("store.mmap_write_rows_per_s", writes, probeRounds)

	case wServe:
		li := inst.(*localInst)
		// The same HTTP path with the trainer paused.
		stop := li.sv.startQueries(in.Train.NumVertices(), in.Cfg.K, o.Seed+1000, nil)
		time.Sleep(time.Duration(math.Min(o.Seconds/10, 1) * float64(time.Second)))
		idle := stop()
		if idle.failed() > 0 {
			return fmt.Errorf("idle serving probe: %d of %d queries failed", idle.failed(), idle.attempted())
		}
		r.timing("serve.idle_query_p50_us", idle.latencyUS)
		if err := probeServe(r, li); err != nil {
			return err
		}
	}
	return nil
}

// calibrate times perfmodel.Calibrate and records how long it took.
func calibrate(r results) perfmodel.Machine {
	t0 := time.Now()
	m := perfmodel.Calibrate()
	r.set("perfmodel.calibrate_s", time.Since(t0).Seconds(), 1)
	return m
}
