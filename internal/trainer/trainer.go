// Package trainer is the one training program behind cmd/ocd-train and
// cmd/ocd-cluster. The paper's system is a single sampler launched at any
// node count × thread count; here that is one flag table (flags.go) and one
// Run, which picks the engine from -ranks: 1 runs core.Sampler over the
// in-RAM or mmap π backend, >= 2 runs dist.RunOnTransport over the chosen
// transport. Everything around the engine — graph load and held-out split,
// telemetry sink, monitor, query server, resume, checkpoint, report — exists
// once and means the same thing at every rank count.
package trainer

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/transport"
)

// Run is the whole program: parse args, load and split the graph, wire the
// telemetry sink / monitor / query server, train on the engine -ranks
// selects, and print the report to stdout. prog names the binary in usage
// text; defaultRanks is the only thing the two binaries disagree on. Every
// resource Run acquires is released on every path, a failed run included —
// its JSONL stream is flushed up to the failure — so the caller's os.Exit is
// the only one.
func Run(prog string, defaultRanks int, args []string, stdout io.Writer) (err error) {
	r := &run{out: stdout}
	if ok, err := r.parse(prog, defaultRanks, args); !ok {
		return err
	}
	train, held, err := r.loadGraph()
	if err != nil {
		return err
	}

	if r.metricsOut != "" {
		sink, serr := r.openSink()
		if serr != nil {
			return serr
		}
		r.opt.Events = sink
		defer func() {
			if cerr := sink.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("flushing -metrics-out: %w", cerr)
			}
		}()
	}
	if r.monitorAt != "" {
		mon := obs.NewMonitor(r.monitorAt)
		if r.pprof {
			mon.EnablePprof() // before Start: the route table is built at bind time
		}
		addr, err := mon.Start()
		if err != nil {
			return err
		}
		defer shutdown(mon)
		fmt.Fprintf(r.out, "monitor: http://%s/metrics\n", addr)
		if r.pprof {
			fmt.Fprintf(r.out, "pprof:   http://%s/debug/pprof/\n", addr)
		}
		r.opt.Monitor = mon
	}
	// -serve: the engine publishes a sealed π snapshot every -publish-every
	// iterations and this process answers queries against the freshest one
	// while training continues. Publication only reads, so the trained model
	// is bit-identical with or without it.
	if r.serveAt != "" {
		pub := store.NewPublisher()
		r.opt.Publisher = pub
		eng := serve.NewEngine(0)
		eng.Attach(pub)
		srv := serve.New(r.serveAt, eng, pub)
		bound, err := srv.Start()
		if err != nil {
			return err
		}
		defer shutdown(srv)
		fmt.Fprintf(r.out, "serving queries: http://%s/ (endpoints: /topk /members /shared /stats)\n", bound)
	}

	if r.opt.Ranks == 1 {
		return r.trainLocal(train, held)
	}
	return r.trainDist(train, held)
}

// shutdown stops an HTTP endpoint (the monitor or the query server) once the
// run is over: the listener closes at once, open SSE streams and in-flight
// requests get five seconds to drain.
func shutdown(endpoint interface{ Shutdown(context.Context) error }) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = endpoint.Shutdown(ctx)
}

// loadGraph reads -graph and splits off the held-out set. A SNAP read
// densifies the file's vertex ids; r.ids keeps the map back to them
// (-stream keeps the ids as they are, and r.ids stays nil).
func (r *run) loadGraph() (train *graph.Graph, held *graph.HeldOut, err error) {
	var g *graph.Graph
	if r.stream {
		src, serr := graph.OpenEdgeFile(r.graphPath)
		if serr != nil {
			return nil, nil, serr
		}
		g, err = graph.FromEdgeSource(src)
	} else {
		g, r.ids, err = graph.ReadSNAPFile(r.graphPath)
	}
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(r.out, "loaded %s: %d vertices, %d edges\n", r.graphPath, g.NumVertices(), g.NumEdges())
	return graph.Split(g, g.NumEdges()/r.heldDiv, mathx.NewRNG(r.cfg.Seed+1))
}

// openSink opens the -metrics-out destination: "-" streams to stdout (the
// caller keeps ownership), anything else creates/truncates a file the sink
// owns and closes.
func (r *run) openSink() (*obs.Sink, error) {
	if r.metricsOut == "-" {
		return obs.NewSink(r.out), nil
	}
	f, err := os.Create(r.metricsOut)
	if err != nil {
		return nil, err
	}
	return obs.NewFileSink(f), nil
}

// announceResume reports where a -resume run picked the chain up.
func (r *run) announceResume(iter int) {
	fmt.Fprintf(r.out, "resumed from %s at iteration %d\n", r.resume, iter)
}

// trainLocal is the -ranks 1 engine: core.Sampler over its in-RAM state, or
// over the mmap store with -pi-backend mmap.
func (r *run) trainLocal(train *graph.Graph, held *graph.HeldOut) error {
	iters := r.opt.Iterations
	sopts := r.opt.SamplerOptions()
	var ms *store.MmapStore
	if r.piBackend == "mmap" {
		var err error
		ms, err = store.CreateMmap(r.piDir, train.NumVertices(), r.cfg.K, r.mmap)
		if err != nil {
			return err
		}
		defer ms.Close()
		if err := ms.InitRows(core.ShellInit(r.cfg)); err != nil {
			return err
		}
		if _, err := ms.Seal(); err != nil {
			return err
		}
		sopts.Store = ms
		fmt.Fprintf(r.out, "π backend: mmap in %s (%d rows/shard)\n", r.piDir, r.mmap.ShardRows)
	}
	// The local sampler has no parameter-store traffic, so the recorder runs
	// without a registry: stage durations and perplexity only. Its spans
	// stream into the same log (-ranks 1 traces exactly when it writes one).
	if r.opt.Events != nil {
		sopts.Recorder = obs.NewRunRecorder(r.opt.Events, 0, nil)
		sopts.Tracer = obs.NewTracer(0, 0)
		sopts.Tracer.StreamTo(r.opt.Events)
	}
	s, err := core.NewSampler(r.cfg, train, held, sopts)
	if err != nil {
		return err
	}
	if r.resume != "" {
		// The rows stream straight into the sampler's store — its in-RAM
		// arrays or the mmap backend; only θ passes through a buffer.
		if err := s.Restore(r.resume); err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		if err := core.CheckResumeIter(s.Iteration(), iters); err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		r.announceResume(s.Iteration())
	}

	res := &dist.Result{Phases: s.Phases}
	first := s.Iteration()
	start := time.Now()
	if sopts.Recorder != nil {
		sopts.Recorder.RunStart(1, iters)
	}
	r.perplexityHeader()
	for s.Iteration() < iters {
		// TryStep, not Step: under -pi-backend mmap a store error (a full or
		// read-only -pi-dir) is a runtime condition, reported like any other.
		if err := s.TryStep(); err != nil {
			return fmt.Errorf("iteration %d: %w", s.Iteration(), err)
		}
		t := s.Iteration()
		if r.checkpointDue(t) {
			if err := s.Checkpoint(r.opt.CheckpointPath); err != nil {
				return err
			}
		}
		if r.opt.EvalEvery > 0 && t%r.opt.EvalEvery == 0 {
			r.perplexityRow(dist.PerpPoint{Iter: t, Value: s.EvalPerplexity(), Elapsed: time.Since(start)})
		}
	}
	res.Elapsed = time.Since(start)
	if sopts.Recorder != nil {
		sopts.Tracer.StreamTo(nil) // -posterior-samples below is not the run
		sopts.Recorder.RunEnd(iters)
	}
	r.report(res, iters-first)
	if err := r.finalCheckpoint(s.Checkpoint); err != nil {
		return err
	}
	// Seal the mmap store so the trained π generation is durable on disk and a
	// later OpenMmap sees it; a crash before this point leaves the previous
	// sealed generation intact.
	if ms != nil {
		gen, err := ms.Seal()
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "sealed π store %s (generation %d)\n", r.piDir, gen)
	}
	estimate := s.State
	if r.posteriorSamples > 0 {
		acc := core.NewPosteriorMean(train.NumVertices(), r.cfg.K)
		for i := 0; i < r.posteriorSamples; i++ {
			s.Run(20)
			acc.Add(s.State)
		}
		estimate = acc.State()
		fmt.Fprintf(r.out, "averaged %d posterior samples for the final estimate\n", r.posteriorSamples)
	}
	return r.writeOutputs(estimate, held)
}

// trainDist is the -ranks >= 2 engine: dist.RunOnTransport over an explicit
// conn slice, so the fault wrappers (-slow-rank) apply to either transport
// uniformly.
func (r *run) trainDist(train *graph.Graph, held *graph.HeldOut) error {
	opt := r.opt
	ranks, iters := opt.Ranks, opt.Iterations
	opt.RestartPath = r.resume
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointPath = "" // at run end only: written below, not by the engine
	}
	if r.failRank >= 0 {
		opt.FaultHook = func(rank, iter int) error {
			if rank == r.failRank && iter == r.failIter {
				return fmt.Errorf("injected fault (-fail-rank %d -fail-iter %d)", rank, iter)
			}
			return nil
		}
	}
	if r.slowPhi > 0 {
		// Compute-proportional straggler at the -slow-rank rank: each
		// update_phi sleeps perNode × assigned nodes, so shrinking the rank's
		// share genuinely shrinks its lag — unlike -slow-send, whose fixed
		// per-send cost no re-sharding can cure.
		opt.ComputeDelay = func(rank, nodes int) time.Duration {
			if rank != r.slowRank {
				return 0
			}
			return time.Duration(nodes) * r.slowPhi
		}
	}

	var conns []transport.Conn
	if r.transport == "tcp" {
		// Real wire framing on the loopback mesh: the instrumented conns count
		// every byte the protocol puts on a socket, so the transport.* counters
		// in the report reflect multi-process traffic.
		mesh, closeMesh, err := transport.DialLoopbackMesh(ranks)
		if err != nil {
			return err
		}
		defer closeMesh()
		conns = mesh
	} else {
		fabric, err := transport.NewFabric(ranks)
		if err != nil {
			return err
		}
		defer fabric.Close()
		conns = fabric.Endpoints()
	}
	// validateFaultFlags guaranteed slowRank < ranks == len(conns), so a
	// requested straggler is always actually injected.
	if r.slowRank >= 0 {
		// Delay only collective-tag sends: the signature of a rank whose
		// compute lags (late barrier/gather contributions) without also
		// throttling its DKV request serving.
		conns[r.slowRank] = &transport.FaultConn{
			Conn: conns[r.slowRank],
			DelaySend: func(_ int, tag uint32) time.Duration {
				if tag < cluster.TagUserBase {
					return r.slowSend
				}
				return 0
			},
		}
	}
	res, err := dist.RunOnTransport(r.cfg, train, held, opt, conns)
	if err != nil {
		return err
	}

	if r.resume != "" {
		r.announceResume(res.Resumed)
	}
	r.perplexityHeader()
	for _, p := range res.Perplexity {
		r.perplexityRow(p)
	}
	r.report(res, iters-res.Resumed)
	if r.rankTable {
		fmt.Fprintf(r.out, "\nper-rank breakdown:\n%s", dist.RankTable(res.RankPhases, iters-res.Resumed))
	}
	fmt.Fprintf(r.out, "\nDKV traffic: %d local keys, %d remote keys (%.1f%% remote), %d requests, %.1f MB read, %.1f MB written\n",
		res.DKV.LocalKeys, res.DKV.RemoteKeys, 100*res.RemoteFrac, res.DKV.Requests,
		float64(res.DKV.BytesRead)/1e6, float64(res.DKV.BytesWritten)/1e6)
	ctr := res.Metrics.Counters
	if sent := ctr[obs.CtrNetBytesSent]; sent > 0 {
		fmt.Fprintf(r.out, "transport (%s): %d msgs / %.1f MB sent, %d msgs / %.1f MB received\n",
			r.transport, ctr[obs.CtrNetMsgsSent], float64(sent)/1e6,
			ctr[obs.CtrNetMsgsRecv], float64(ctr[obs.CtrNetBytesRecv])/1e6)
	}
	fmt.Fprintf(r.out, "%v\n", res.Peers.Straggler())
	if opt.Rebalance {
		fmt.Fprintf(r.out, "straggler mitigation: %d/%d windows rebalanced, %d rank flags\n",
			ctr[obs.CtrReshardChanges], ctr[obs.CtrReshardWindows], ctr[obs.CtrReshardFlags])
	}
	err = r.finalCheckpoint(func(path string) error { return res.State.SaveFile(path, iters) })
	if err != nil {
		return err
	}
	return r.writeOutputs(res.State, held)
}

// checkpointDue reports whether the periodic -checkpoint-every write falls
// on iteration t (iterations completed).
func (r *run) checkpointDue(t int) bool {
	return r.opt.CheckpointPath != "" && r.opt.CheckpointEvery > 0 && t%r.opt.CheckpointEvery == 0
}

// finalCheckpoint is -checkpoint's write at run end through the engine's
// save (the sampler's Checkpoint, or the gathered state's SaveFile — the same
// bytes for the same model), skipped when the periodic write already landed
// on the last iteration.
func (r *run) finalCheckpoint(save func(path string) error) error {
	path, iters := r.opt.CheckpointPath, r.opt.Iterations
	if path == "" {
		return nil
	}
	if !r.checkpointDue(iters) {
		if err := save(path); err != nil {
			return err
		}
	}
	fmt.Fprintf(r.out, "checkpoint written to %s (iteration %d)\n", path, iters)
	return nil
}

func (r *run) perplexityHeader() {
	fmt.Fprintf(r.out, "%10s %12s %14s\n", "iteration", "elapsed (s)", "perplexity")
}

func (r *run) perplexityRow(p dist.PerpPoint) {
	fmt.Fprintf(r.out, "%10d %12.2f %14.4f\n", p.Iter, p.Elapsed.Seconds(), p.Value)
}

// report prints what every run reports once training is done — the rate, the
// Table III stage breakdown, peak memory. ran is the number of iterations this
// process executed (fewer than -iters after a -resume).
func (r *run) report(res *dist.Result, ran int) {
	fmt.Fprintf(r.out, "trained %d iterations in %.2fs (%.1f ms/iteration)\n",
		ran, res.Elapsed.Seconds(), res.Elapsed.Seconds()*1000/float64(ran))
	fmt.Fprintf(r.out, "\nphase breakdown (max across %d ranks):\n%s", r.opt.Ranks, res.Phases.Table(ran))
	if rss, ok := peakRSSKiB(); ok {
		fmt.Fprintf(r.out, "peak RSS: %.1f MiB\n", float64(rss)/1024)
	}
}

// writeOutputs scores and exports the final estimate: -auc and -communities.
func (r *run) writeOutputs(estimate *core.State, held *graph.HeldOut) error {
	if r.auc {
		pairs := make([][2]int32, held.Len())
		for i, e := range held.Pairs {
			pairs[i] = [2]int32{e.A, e.B}
		}
		fmt.Fprintf(r.out, "held-out link-prediction AUC: %.4f\n", metrics.LinkAUC(estimate, pairs, held.Linked, r.cfg.Delta))
	}
	if r.communities != "" {
		cover := metrics.FromState(estimate, 0)
		if err := metrics.WriteCoverFile(r.communities, cover, r.ids); err != nil {
			return err
		}
		fmt.Fprintf(r.out, "wrote %d detected communities to %s\n", len(cover.Members), r.communities)
	}
	return nil
}

// peakRSSKiB reads the process high-water-mark RSS from /proc/self/status —
// the number the memory-capped CI job asserts against.
func peakRSSKiB() (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == "VmHWM:" {
			kib, err := strconv.ParseInt(fields[1], 10, 64)
			return kib, err == nil
		}
	}
	return 0, false
}
