// ocd-cluster runs the distributed engine on a simulated cluster: the given
// number of ranks execute the full master-worker protocol (minibatch
// scatter, DKV π storage, chunk-ordered θ reduction) over the in-process
// fabric, and the per-phase breakdown is printed at the end — the same rows
// as the paper's Table III.
//
// Usage:
//
//	ocd-cluster -graph dblp.txt -ranks 8 -k 64 -iters 500 -pipeline
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/transport"
)

func main() {
	var (
		path      = flag.String("graph", "", "input SNAP edge-list (required)")
		ranks     = flag.Int("ranks", 4, "simulated cluster size")
		threads   = flag.Int("threads", 2, "threads per rank")
		k         = flag.Int("k", 32, "number of latent communities")
		iters     = flag.Int("iters", 500, "training iterations")
		evalEach  = flag.Int("eval", 100, "perplexity evaluation interval (0 = never)")
		pipeline  = flag.Bool("pipeline", false, "enable double-buffered π loading and minibatch prefetch")
		phiChunk  = flag.Int("phi-chunk", 0, "pipeline chunk size in minibatch vertices (0 = automatic policy)")
		pipeDepth = flag.Int("pipeline-depth", 2, "π-load buffer slots per rank (2 = the paper's double buffering)")
		seed      = flag.Uint64("seed", 42, "random seed")
		heldDiv   = flag.Int("heldout-div", 50, "held-out links = |E| / this")
		mb        = flag.Int("minibatch", 256, "minibatch size in vertex pairs")
		neigh     = flag.Int("neighbors", 32, "neighbor sample size |V_n|")
		hotCache  = flag.Int("hot-cache", 0, "per-rank hot-row cache size in π rows (0 = off; result is bit-identical either way)")
		cachePol  = flag.String("hot-cache-policy", "lru", "cache admission policy: lru (admit everything) or admit2 (admit on second sighting)")
		cacheXit  = flag.Bool("hot-cache-cross-iter", false, "keep the cache alive across barriers, dropping only rows named by the write-set exchange")
		cacheDeg  = flag.Int("hot-cache-min-degree", 0, "with -hot-cache-policy admit2, admit rows of at least this graph degree on first sighting")
		transp    = flag.String("transport", "inproc", "rank interconnect: inproc (shared-memory fabric) or tcp (loopback mesh, real wire framing)")
		failRank  = flag.Int("fail-rank", -1, "fault injection: rank to crash (-1 = none)")
		failIter  = flag.Int("fail-iter", 0, "fault injection: iteration at which -fail-rank crashes")
		slowRank  = flag.Int("slow-rank", -1, "fault injection: rank whose collective sends are delayed by -slow-send (-1 = none); the straggler report should flag it")
		slowSend  = flag.Duration("slow-send", time.Millisecond, "per-send delay injected at -slow-rank")
		slowPhi   = flag.Duration("slow-phi", 0, "fault injection: per-assigned-node compute delay injected into -slow-rank's update_phi — the degraded-CPU straggler -rebalance can cure")
		rebalance = flag.Bool("rebalance", false, "close the straggler loop: re-shard each window's minibatch away from flagged ranks (trained model stays bit-identical)")
		rebalWin  = flag.Int("rebalance-window", 0, "straggler-mitigation window in iterations (0 = library default)")
		ckptPath  = flag.String("checkpoint", "", "write a coordinated checkpoint of (π, Σφ, θ, iteration) to this file every -checkpoint-every iterations")
		ckptEvery = flag.Int("checkpoint-every", 10, "checkpoint interval in iterations")
		restart   = flag.String("restart-from", "", "resume from a -checkpoint file: ranks initialise from its state and training continues at its iteration")
		metrics   = flag.String("metrics-out", "", "write the JSONL telemetry event stream to this file (- = stdout)")
		monitor   = flag.String("monitor", "", "serve live metrics over HTTP on this address (e.g. :6060 or 127.0.0.1:0)")
		pprofOn   = flag.Bool("pprof", false, "with -monitor, expose net/http/pprof under /debug/pprof/ (explicit opt-in; enables block profiling)")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event file (Perfetto-loadable) with every rank's spans at run end")
		serveAt   = flag.String("serve", "", "answer membership queries over HTTP on this address while training (e.g. :7070)")
		pubEvery  = flag.Int("publish-every", 1, "with -serve, publish a fresh snapshot every this many iterations")
		rankTable = flag.Bool("rank-table", false, "print the per-rank × per-stage time table after the run")
	)
	flag.Parse()
	if *path == "" {
		fatal(fmt.Errorf("-graph is required"))
	}
	if err := validateFaultFlags(*ranks, *failRank, *slowRank, *slowPhi); err != nil {
		fatal(err)
	}

	g, _, err := graph.ReadSNAPFile(*path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %s: %d vertices, %d edges\n", *path, g.NumVertices(), g.NumEdges())
	train, held, err := graph.Split(g, g.NumEdges() / *heldDiv, mathx.NewRNG(*seed+1))
	if err != nil {
		fatal(err)
	}

	cfg := core.DefaultConfig(*k, *seed)
	cfg.Alpha = 1 / float64(*k)
	opts := dist.Options{
		Ranks: *ranks, Threads: *threads, Iterations: *iters,
		EvalEvery: *evalEach, Pipeline: *pipeline,
		PhiChunkNodes: *phiChunk, PipelineDepth: *pipeDepth,
		MinibatchPairs: *mb, NeighborCount: *neigh,
		HotRowCache: *hotCache, HotCachePolicy: *cachePol,
		HotCacheCrossIter: *cacheXit, HotCacheMinDegree: *cacheDeg,
	}
	if *failRank >= 0 {
		opts.FaultHook = func(rank, iter int) error {
			if rank == *failRank && iter == *failIter {
				return fmt.Errorf("injected fault (-fail-rank %d -fail-iter %d)", rank, iter)
			}
			return nil
		}
	}
	if *rebalance {
		opts.Rebalance = true
		opts.RebalanceCfg = engine.DefaultRebalanceConfig()
		if *rebalWin > 0 {
			opts.RebalanceCfg.Window = *rebalWin
		}
	}
	if *slowPhi > 0 {
		// Compute-proportional straggler at the -slow-rank rank: each
		// update_phi sleeps perNode × assigned nodes, so shrinking the rank's
		// share genuinely shrinks its lag — unlike -slow-send, whose fixed
		// per-send cost no re-sharding can cure.
		perNode, target := *slowPhi, *slowRank
		opts.ComputeDelay = func(rank, nodes int) time.Duration {
			if rank != target {
				return 0
			}
			return time.Duration(nodes) * perNode
		}
	}
	opts.CheckpointPath = *ckptPath
	opts.CheckpointEvery = *ckptEvery
	if *restart != "" {
		state, iter, err := core.LoadFileFor(*restart, cfg, train.NumVertices())
		if err != nil {
			fatal(fmt.Errorf("-restart-from: %w", err))
		}
		if iter >= *iters {
			fatal(fmt.Errorf("-restart-from checkpoint is at iteration %d, at or past -iters %d", iter, *iters))
		}
		opts.RestartState = state
		opts.RestartIter = iter
		fmt.Printf("resuming from %s at iteration %d\n", *restart, iter)
	}
	if *metrics != "" {
		sink, err := openSink(*metrics)
		if err != nil {
			fatal(err)
		}
		opts.Events = sink
	}
	if *pprofOn && *monitor == "" {
		fatal(fmt.Errorf("-pprof requires -monitor (the profiles are served on the monitor address)"))
	}
	if *monitor != "" {
		mon := obs.NewMonitor(*monitor)
		if *pprofOn {
			mon.EnablePprof() // before Start: the route table is built at bind time
		}
		addr, err := mon.Start()
		if err != nil {
			fatal(err)
		}
		defer mon.Close()
		fmt.Printf("monitor: http://%s/metrics\n", addr)
		if *pprofOn {
			fmt.Printf("pprof:   http://%s/debug/pprof/\n", addr)
		}
		opts.Monitor = mon
	}
	opts.TraceOut = *traceOut
	// -serve: the master publishes the assembled π view every -publish-every
	// iterations and this process answers queries against the freshest
	// snapshot while the run continues. Bit-identical training either way.
	if *serveAt != "" {
		pub := store.NewPublisher()
		opts.Publisher = pub
		opts.PublishEvery = *pubEvery
		eng := serve.NewEngine(0)
		eng.Attach(pub)
		srv := serve.New(*serveAt, eng, pub)
		bound, err := srv.Start()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("serving queries: http://%s/ (endpoints: /topk /members /shared /stats)\n", bound)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
	}
	// Both interconnects go through RunOnTransport over an explicit conn
	// slice so fault wrappers (the -slow-rank straggler injection) apply
	// uniformly.
	var conns []transport.Conn
	var cleanup func()
	switch *transp {
	case "inproc":
		fabric, ferr := transport.NewFabric(*ranks)
		if ferr != nil {
			fatal(ferr)
		}
		conns = fabric.Endpoints()
		cleanup = func() { fabric.Close() }
	case "tcp":
		// Real wire framing on the loopback mesh: the instrumented conns
		// count every byte the protocol puts on a socket, so the
		// transport.* counters below reflect multi-process traffic.
		conns, cleanup, err = transport.DialLoopbackMesh(*ranks)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -transport %q (want inproc or tcp)", *transp))
	}
	// validateFaultFlags guaranteed *slowRank < *ranks == len(conns), so a
	// requested straggler is always actually injected — an out-of-range rank
	// used to be silently ignored here, making the run look mysteriously
	// healthy.
	if *slowRank >= 0 {
		// Delay only collective-tag sends: the signature of a rank whose
		// compute lags (late barrier/gather contributions) without also
		// throttling its DKV request serving.
		delay := *slowSend
		conns[*slowRank] = &transport.FaultConn{
			Conn: conns[*slowRank],
			DelaySend: func(_ int, tag uint32) time.Duration {
				if tag < cluster.TagUserBase {
					return delay
				}
				return 0
			},
		}
	}
	res, err := dist.RunOnTransport(cfg, train, held, opts, conns)
	cleanup()
	if err != nil {
		fatal(err)
	}
	if opts.Events != nil {
		if err := opts.Events.Close(); err != nil {
			fatal(fmt.Errorf("flushing -metrics-out: %w", err))
		}
	}

	fmt.Printf("\nperplexity trace:\n%10s %12s %14s\n", "iteration", "elapsed (s)", "perplexity")
	for _, p := range res.Perplexity {
		fmt.Printf("%10d %12.2f %14.4f\n", p.Iter, p.Elapsed.Seconds(), p.Value)
	}

	fmt.Printf("\nphase breakdown (max across %d ranks):\n%s", *ranks, res.Phases.Table(*iters))
	if *rankTable {
		fmt.Printf("\nper-rank breakdown:\n%s", dist.RankTable(res.RankPhases, *iters))
	}
	fmt.Printf("\nDKV traffic: %d local keys, %d remote keys (%.1f%% remote), %d requests, %.1f MB read, %.1f MB written\n",
		res.DKV.LocalKeys, res.DKV.RemoteKeys, 100*res.RemoteFrac, res.DKV.Requests,
		float64(res.DKV.BytesRead)/1e6, float64(res.DKV.BytesWritten)/1e6)
	if *hotCache > 0 {
		lookups := res.DKV.CacheHits + res.DKV.CacheMisses
		rate := 0.0
		if lookups > 0 {
			rate = 100 * float64(res.DKV.CacheHits) / float64(lookups)
		}
		fmt.Printf("hot-row cache: %d hits / %d lookups (%.1f%% hit rate), %d evictions, %d invalidations (cap %d rows/rank, policy %s, cross-iter %v)\n",
			res.DKV.CacheHits, lookups, rate, res.DKV.CacheEvictions, res.DKV.CacheInvalidations,
			*hotCache, *cachePol, *cacheXit)
	}
	if sent := res.Metrics.Counters[obs.CtrNetBytesSent]; sent > 0 {
		fmt.Printf("transport (%s): %d msgs / %.1f MB sent, %d msgs / %.1f MB received\n",
			*transp, res.Metrics.Counters[obs.CtrNetMsgsSent], float64(sent)/1e6,
			res.Metrics.Counters[obs.CtrNetMsgsRecv], float64(res.Metrics.Counters[obs.CtrNetBytesRecv])/1e6)
	}
	if res.Peers != nil {
		rep := res.Peers.Straggler()
		fmt.Println(rep)
	}
	if *rebalance {
		fmt.Printf("straggler mitigation: %d/%d windows rebalanced, %d rank flags\n",
			res.Metrics.Counters[obs.CtrReshardChanges],
			res.Metrics.Counters[obs.CtrReshardWindows],
			res.Metrics.Counters[obs.CtrReshardFlags])
	}
	if *traceOut != "" {
		fmt.Printf("trace: wrote %d rank bundles to %s (load in Perfetto, or feed to ocd-analyze -trace)\n",
			len(res.Trace), *traceOut)
	}
	fmt.Printf("total wall time: %.2fs for %d iterations (%.1f ms/iteration)\n",
		res.Elapsed.Seconds(), *iters, res.Elapsed.Seconds()*1000/float64(*iters))
}

// validateFaultFlags rejects fault-injection targets that cannot take
// effect, instead of silently running a healthy cluster: -fail-rank and
// -slow-rank must name a rank inside [0, ranks) (or -1 to disable), and
// -slow-phi needs -slow-rank to say which rank's compute is degraded.
func validateFaultFlags(ranks, failRank, slowRank int, slowPhi time.Duration) error {
	if failRank < -1 || failRank >= ranks {
		return fmt.Errorf("-fail-rank %d outside the cluster [0, %d) (-1 disables)", failRank, ranks)
	}
	if slowRank < -1 || slowRank >= ranks {
		return fmt.Errorf("-slow-rank %d outside the cluster [0, %d) (-1 disables)", slowRank, ranks)
	}
	if slowPhi < 0 {
		return fmt.Errorf("-slow-phi %v is negative", slowPhi)
	}
	if slowPhi > 0 && slowRank < 0 {
		return fmt.Errorf("-slow-phi needs -slow-rank to name the degraded rank")
	}
	return nil
}

// openSink opens the -metrics-out destination: "-" streams to stdout (the
// caller keeps ownership), anything else creates/truncates a file the sink
// owns and closes.
func openSink(path string) (*obs.Sink, error) {
	if path == "-" {
		return obs.NewSink(os.Stdout), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return obs.NewFileSink(f), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ocd-cluster:", err)
	os.Exit(1)
}
