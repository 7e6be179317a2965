// Package trainer is the training program behind cmd/ocd-train. The
// paper's system is a single sampler launched at any node count × thread
// count; here that is one flag table (flags.go) and one Run, which runs
// dist.RunOnTransport on -ranks ranks over the chosen transport — -ranks 1
// is the same engine on a one-endpoint fabric — with π in RAM or in
// per-rank mmap partitions. Everything around the engine —
// graph load and held-out split, telemetry sink, monitor, query server,
// resume, checkpoint, posterior mean, report — exists once and means the
// same thing at every rank count.
package trainer

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dkv"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/transport"
)

// Run is the whole program: parse args, load and split the graph, wire the
// telemetry sink / monitor / query server, train on -ranks ranks, and print
// the report to stdout. Every resource Run acquires is released on every
// path, a failed run included — its JSONL stream is flushed up to the failure
// — so the caller's os.Exit is the only one.
func Run(args []string, stdout io.Writer) (err error) {
	r := &run{out: stdout}
	if ok, err := r.parse(args); !ok {
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

	return r.train(train, held)
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

// train is the engine at every -ranks: dist.RunOnTransport over an
// explicit conn slice — one endpoint of an in-process fabric at -ranks 1 —
// so the fault wrappers (-slow-rank) apply to either transport uniformly.
func (r *run) train(train *graph.Graph, held *graph.HeldOut) error {
	opt := r.opt
	ranks, iters := opt.Ranks, opt.Iterations
	opt.RestartPath = r.resume
	opt.PosteriorSamples = r.posteriorSamples
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
	// -pi-backend mmap: each rank's partition, the rows of its dkv.Range
	// holding their initial draws, sealed before the run and after it.
	var parts []*store.MmapStore
	for rank := 0; r.piBackend == "mmap" && rank < ranks; rank++ {
		lo, hi := dkv.Range(train.NumVertices(), ranks, rank)
		ms, err := store.CreateMmap(r.partitionDir(rank), hi-lo, r.cfg.K, r.mmap)
		if err != nil {
			return err
		}
		defer ms.Close()
		parts = append(parts, ms)
		opt.Partitions = append(opt.Partitions, ms)
		if err := ms.InitRows(func(i int, pi []float32) float64 { return core.InitPiRow(r.cfg, lo+i, pi) }); err != nil {
			return err
		}
		if _, err := ms.Seal(); err != nil {
			return err
		}
	}
	if parts != nil {
		fmt.Fprintf(r.out, "π backend: mmap in %s (%d rows/shard)\n", r.piDir, r.mmap.ShardRows)
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
		fmt.Fprintf(r.out, "resumed from %s at iteration %d\n", r.resume, res.Resumed)
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
	if opt.CheckpointPath != "" {
		fmt.Fprintf(r.out, "checkpoint written to %s (iteration %d)\n", opt.CheckpointPath, iters)
	}
	// Seal the mmap partitions so the trained π generation is durable on disk
	// and a later OpenMmap sees it; a crash before this point leaves the
	// previous sealed generation intact.
	for rank, ms := range parts {
		gen, err := ms.Seal()
		if err != nil {
			return err
		}
		fmt.Fprintf(r.out, "sealed π store %s (generation %d)\n", r.partitionDir(rank), gen)
	}
	if r.posteriorSamples > 0 {
		fmt.Fprintf(r.out, "averaged %d posterior samples for the final estimate\n", r.posteriorSamples)
	}
	return r.writeOutputs(res.State, held)
}

// partitionDir is rank's mmap partition directory under -pi-dir.
func (r *run) partitionDir(rank int) string {
	return filepath.Join(r.piDir, fmt.Sprintf("rank-%d", rank))
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
