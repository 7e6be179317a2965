package dist

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dkv"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Options configures a distributed run.
type Options struct {
	Ranks   int // simulated cluster size (master is rank 0 and also computes)
	Threads int // OpenMP-style threads per rank; 0 = GOMAXPROCS

	// Pipeline enables both pipelining schemes of Section III-D: the master
	// samples iteration t+1's minibatch while computing t, and each rank
	// overlaps π loading against the update_phi compute. The per-rank
	// overlap engages only at Ranks > 1: at one rank every row is the
	// rank's own and a load is a memory copy, so the node runs the serial
	// φ stage. Its chunk size is fixed policy (core.PhiStage.plan).
	Pipeline bool

	// HotRowCache, HotCachePolicy and HotCacheCrossIter are unread shims
	// for the benchmark module, which still sets them: the DKV store has no
	// row cache, so they change nothing. ROADMAP item 3 deletes them.
	HotRowCache       int
	HotCachePolicy    string
	HotCacheCrossIter bool

	// Minibatch and neighbor strategy parameters, mirroring
	// core.SamplerOptions; zero values take its defaults.
	MinibatchPairs   int
	Stratified       bool
	NeighborCount    int
	UniformNeighbors bool

	// EvalEvery > 0 evaluates the averaged perplexity after every EvalEvery-th
	// iteration (requires a held-out set); 0 never evaluates.
	EvalEvery  int
	Iterations int

	// Events, when non-nil, receives the live telemetry stream: one iter
	// event per iteration per rank with per-stage durations and DKV counter
	// deltas, plus run_start/perplexity/run_end events from rank 0. The sink
	// is shared by all ranks (it serialises internally). Nil keeps the hot
	// path telemetry-free.
	Events *obs.Sink
	// Monitor, when non-nil, is attached to rank 0's metric registry so the
	// HTTP endpoint serves live counters, gauges, and stage histograms during
	// the run, and its /events SSE endpoint streams the run's event stream
	// (every rank; a discard-backed sink is created when Events is nil). The
	// caller keeps its lifetime: start it before the run, shut it down after.
	Monitor *obs.Monitor

	// Trace enables span tracing: every rank records stage, collective, and
	// DKV spans (client and server side). With Events set, each rank streams
	// its spans into that log as "span" events as they close; without it,
	// each rank buffers them (bounded) and Result.Trace carries the buffers.
	// Tracing only observes — the trained trajectory is bit-identical with it
	// on or off.
	Trace bool

	// Publisher, when non-nil, receives a sealed full-view store.Snapshot of
	// π/β from the serving rank (the master, rank 0) after the write barrier
	// of every PublishEvery-th iteration — the feed of the internal/serve
	// read tier. The master gathers peer shards through store.TakeSnapshot's
	// sweep of its DKV store while the peers are fenced waiting on its next
	// scatter, so the gather is consistent and the trained trajectory stays
	// bit-identical with publication on or off.
	Publisher *store.Publisher
	// PublishEvery is the publication interval in iterations; 0 and 1
	// publish every iteration (engine.Every). Ignored when Publisher is nil.
	PublishEvery int

	// FaultHook, when non-nil, is called by every rank at the top of each
	// iteration; a non-nil return makes that rank fail exactly as if the
	// iteration itself had errored, triggering the fabric-wide abort. It
	// exists for the failure-injection test suites and the -fail-rank /
	// -fail-iter flags of cmd/ocd-train; production runs leave it nil.
	FaultHook func(rank, iter int) error

	// Rebalance closes the straggler loop: every RebalanceWindow iterations
	// the ranks gather their per-peer recv-wait deltas at the master, the
	// engine.Rebalancer applies the straggler rule with its fixed hysteresis,
	// and the next window's minibatch is re-sharded over the resulting
	// weights (engine.SplitWeighted). Because φ draws are keyed by
	// (iteration, vertex) and the θ fold is chunk-ordered, re-sharding moves
	// work between ranks without touching the estimator: the trained
	// trajectory is bit-identical with mitigation on or off, under any
	// weight trajectory. RebalanceWindow 0 selects
	// engine.DefaultRebalanceWindow (8); it is the one mitigation setting.
	Rebalance       bool
	RebalanceWindow int

	// ComputeDelay, when non-nil, injects an artificial compute delay into
	// every rank's update_phi, scaled by the work actually assigned (nodes =
	// this rank's minibatch share). It models a degraded-CPU straggler — the
	// fault the rebalancer can actually cure by moving work away, unlike
	// -slow-rank's fixed per-send delay, whose cost is share-independent.
	// Fault injection for tests and cmd/ocd-train's -slow-phi; production
	// runs leave it nil.
	ComputeDelay func(rank, nodes int) time.Duration

	// CheckpointPath, when non-empty, makes the master write a coordinated
	// core.State checkpoint (π, Σφ, θ, and the iteration counter) after the
	// last iteration, and also after every CheckpointEvery-th iteration when
	// CheckpointEvery > 0 (0 writes at run end only), at the phase barrier
	// that ends the iteration: the master gathers peer shards through the DKV
	// read path while the peers are fenced waiting on its next collective,
	// the same consistency argument as Publisher.
	CheckpointPath  string
	CheckpointEvery int

	// RestartPath resumes a run from the checkpoint file at that path: the
	// master streams its rows into the DKV table in bounded batches (no rank
	// holds a second full copy of π) and broadcasts θ and the stored
	// iteration, and iterations run from there to Iterations. A shape
	// mismatch, a truncated file or a checkpoint at or past Iterations fails
	// the run through the abort path. All random draws are keyed by the
	// absolute iteration number, so a resumed run is bit-identical to one
	// that never stopped.
	RestartPath string

	// Partitions, when non-nil, holds each rank's share of π, indexed by
	// rank: entry r covers the rows dkv.Range(N, Ranks, r) and already holds
	// their initial rows (core.InitPiRow), as an out-of-core store such as
	// store.MmapStore. The engine trains through them and leaves them
	// holding the trained rows; it never gathers π into memory for
	// Result.State. Nil keeps each rank's rows in an in-RAM LocalStore. A
	// slice that does not fit the run is a *PartitionError.
	Partitions []store.PiStore

	// PosteriorSamples > 0 continues the chain past Iterations for
	// PosteriorSamples × 20 iterations of the training stages alone — no
	// evaluation, checkpoint, publication or reshard, and unobserved, so
	// nothing reaches the phase table, the event log or the trace — and the
	// master folds its gathered state into a core.PosteriorMean every 20
	// iterations. Result.State is then that mean.
	PosteriorSamples int
}

// posteriorGap is the number of iterations between two posterior samples.
const posteriorGap = 20

// PartitionError reports Options.Partitions that do not fit the run: not
// one store per rank (Rank is -1 and Rows counts the stores given), or rank
// Rank's store not the Rows×K its dkv.Range needs.
type PartitionError struct {
	Rank            int
	Rows, K         int
	WantRows, WantK int
}

func (e *PartitionError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("dist: %d partitions for %d ranks", e.Rows, e.WantRows)
	}
	return fmt.Sprintf("dist: rank %d partition is %d×%d, want %d×%d", e.Rank, e.Rows, e.K, e.WantRows, e.WantK)
}

// checkPartitions holds caller-supplied partitions to the run's shape.
func checkPartitions(parts []store.PiStore, n, k, ranks int) error {
	if len(parts) != ranks {
		return &PartitionError{Rank: -1, Rows: len(parts), WantRows: ranks}
	}
	for r, p := range parts {
		lo, hi := dkv.Range(n, ranks, r)
		if p.NumRows() != hi-lo || p.K() != k {
			return &PartitionError{Rank: r, Rows: p.NumRows(), K: p.K(), WantRows: hi - lo, WantK: k}
		}
	}
	return nil
}

// samplerOptions carries o's minibatch and neighbour strategy fields to
// core.NewEdgeStrategy / NewNeighborStrategy, where the defaults live, so
// this engine and core.Sampler cannot drift apart.
func (o Options) samplerOptions() core.SamplerOptions {
	return core.SamplerOptions{
		MinibatchPairs:   o.MinibatchPairs,
		Stratified:       o.Stratified,
		NeighborCount:    o.NeighborCount,
		UniformNeighbors: o.UniformNeighbors,
	}
}

// PerpPoint is one perplexity evaluation during a run.
type PerpPoint struct {
	Iter    int
	Value   float64
	Elapsed time.Duration
}

// DKVTotals aggregates the DKV traffic of all ranks.
type DKVTotals struct {
	LocalKeys    int64
	RemoteKeys   int64
	Requests     int64
	BytesRead    int64
	BytesWritten int64
	// The Cache* fields are shims for the benchmark module, which still
	// reads them: there is no row cache, so they are always 0. ROADMAP item
	// 3 deletes them.
	CacheHits          int64
	CacheMisses        int64
	CacheEvictions     int64
	CacheInvalidations int64
}

// Result is what a distributed run returns.
type Result struct {
	// State is the trained model gathered at the master: π/Σφ/θ/β after
	// Iterations, or the posterior mean of Options.PosteriorSamples. It is
	// nil when Options.Partitions holds π and no posterior was asked for.
	State      *core.State
	Perplexity []PerpPoint
	Phases     *obs.Phases // per-phase totals, max across ranks
	RankPhases []map[string]time.Duration
	DKV        DKVTotals
	// Metrics is every rank's telemetry registry folded into one snapshot:
	// counters summed, gauges maxed, stage latency histograms merged. Each
	// rank snapshots once, at the fence that ends the run and its log: the
	// master's final gather and the PosteriorSamples iterations are past it.
	Metrics obs.Snapshot
	// RankMetrics holds each rank's unfolded snapshot, indexed by rank — the
	// per-peer transport.peer.<r>.* counters only make sense per rank (folding
	// them smashes matrix rows together), so the matrix below is built from
	// these. Rank 0's DKV counters are its run_end event's.
	RankMetrics []obs.Snapshot
	// Peers is the per-peer traffic/latency matrix folded from RankMetrics;
	// Peers.Straggler() localises stragglers from the imposed-wait column
	// sums.
	Peers      *obs.PeerMatrix
	Iterations int
	// Resumed is the iteration a RestartPath run continued from (0 for a
	// fresh run); the run trained Iterations − Resumed iterations.
	Resumed    int
	Elapsed    time.Duration
	RemoteFrac float64 // fraction of DKV keys served remotely
	// Trace holds every rank's span bundle, rank-ordered, when Options.Trace
	// was set without Options.Events; a logged run's spans are in its log
	// (obs.TraceFromEvents). Feed it to obs.WriteChromeTrace or
	// obs.AnalyzeCriticalPath.
	Trace []obs.TraceBundle
}

// Run executes a distributed training run over an in-process fabric with
// opt.Ranks simulated cluster nodes. The graph lives only at the master
// (rank 0), matching the paper's data distribution; the held-out set is
// replicated (it is small and every rank needs it for exclusion checks).
func Run(cfg core.Config, g *graph.Graph, held *graph.HeldOut, opt Options) (*Result, error) {
	if opt.Ranks == 0 {
		opt.Ranks = 2
	}
	fabric, err := transport.NewFabric(opt.Ranks)
	if err != nil {
		return nil, err
	}
	defer fabric.Close()
	return RunOnTransport(cfg, g, held, opt, fabric.Endpoints())
}

// RunOnTransport is Run over caller-provided endpoints — one per rank, all
// in this process. It exists so the engine can be exercised over the TCP
// mesh (or any other transport.Conn implementation) with the exact same
// protocol; cmd/ocd-train and the TCP fidelity tests use it.
func RunOnTransport(cfg core.Config, g *graph.Graph, held *graph.HeldOut, opt Options, conns []transport.Conn) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opt.Ranks = len(conns)
	if opt.Iterations < 1 {
		return nil, fmt.Errorf("dist: Iterations = %d, need at least 1", opt.Iterations)
	}
	if min(opt.EvalEvery, opt.PublishEvery, opt.CheckpointEvery, opt.RebalanceWindow) < 0 {
		return nil, fmt.Errorf("dist: EvalEvery %d, PublishEvery %d, CheckpointEvery %d, RebalanceWindow %d: none may be negative",
			opt.EvalEvery, opt.PublishEvery, opt.CheckpointEvery, opt.RebalanceWindow)
	}
	if opt.EvalEvery > 0 && held == nil {
		return nil, fmt.Errorf("dist: EvalEvery set but no held-out set given")
	}
	if opt.Partitions != nil {
		if err := checkPartitions(opt.Partitions, g.NumVertices(), cfg.K, opt.Ranks); err != nil {
			return nil, err
		}
	}
	// The monitor's /events endpoint streams whatever sink the run writes to.
	// A monitor-only run still deserves live events, so it gets a sink backed
	// by io.Discard: events are marshalled once and fan out to SSE subscribers
	// while the file write is a no-op.
	if opt.Monitor != nil {
		if opt.Events == nil {
			opt.Events = obs.NewSink(io.Discard)
		}
		opt.Events.Tee(opt.Monitor.EventStream())
	}

	nodes := make([]*node, opt.Ranks)
	for r := 0; r < opt.Ranks; r++ {
		// One telemetry registry per rank: the instrumented transport, the
		// DKV store, and the rank's recorder all write into it, and
		// assembleResult folds the per-rank snapshots.
		reg := obs.NewRegistry()
		nd, err := newNode(cfg, opt, cluster.New(transport.Instrument(conns[r], reg)), g, held, reg)
		if err != nil {
			return nil, err
		}
		nodes[r] = nd
	}

	errs := make([]error, opt.Ranks)
	done := make(chan int, opt.Ranks)
	for r := 0; r < opt.Ranks; r++ {
		go func(r int) {
			errs[r] = nodes[r].run()
			done <- r
		}(r)
	}
	for i := 0; i < opt.Ranks; i++ {
		<-done
	}
	// Every rank returns within bounded time even on failure: the failing
	// rank broadcasts an abort (node.run's deferred Comm.Abort), so its
	// peers surface AbortErrors rather than blocking. Report the originating
	// rank's own error when it is local; peers' abort echoes name the same
	// rank inside the AbortError, so a multi-process driver gets the rank
	// too.
	var abortErr error
	for r, err := range errs {
		if err == nil {
			continue
		}
		if _, isAbort := transport.AsAbort(err); isAbort {
			if abortErr == nil {
				abortErr = fmt.Errorf("dist: rank %d: %w", r, err)
			}
			continue
		}
		return nil, fmt.Errorf("dist: rank %d: %w", r, err)
	}
	if abortErr != nil {
		return nil, abortErr
	}
	return assembleResult(nodes), nil
}

func assembleResult(nodes []*node) *Result {
	master := nodes[0]
	res := &Result{
		State:      master.finalState,
		Perplexity: master.perp,
		Phases:     obs.NewPhases(),
		Iterations: master.opt.Iterations,
		Resumed:    master.startIter,
		Elapsed:    master.ob.Phases.Total(engine.PhaseTotal),
	}
	for _, nd := range nodes {
		res.RankPhases = append(res.RankPhases, nd.ob.Phases.Snapshot())
		res.Phases.Fold(nd.ob.Phases)
		// Each registry's one snapshot, taken at the end-of-run fence: the
		// folded and per-rank views agree (the matrix row-sum invariant is
		// tested against Metrics).
		res.RankMetrics = append(res.RankMetrics, nd.snap)
		res.Metrics.Fold(nd.snap)
		if nd.opt.Trace && nd.opt.Events == nil { // a logged run's spans are in its log
			res.Trace = append(res.Trace, nd.ob.Tracer.Bundle())
		}
	}
	res.Peers = obs.NewPeerMatrix(res.RankMetrics)
	c := res.Metrics.Counters
	res.DKV = DKVTotals{
		LocalKeys:    c[obs.CtrDKVLocalKeys],
		RemoteKeys:   c[obs.CtrDKVRemoteKeys],
		Requests:     c[obs.CtrDKVRequests],
		BytesRead:    c[obs.CtrDKVBytesRead],
		BytesWritten: c[obs.CtrDKVBytesWritten],
	}
	if totalKeys := res.DKV.LocalKeys + res.DKV.RemoteKeys; totalKeys > 0 {
		res.RemoteFrac = float64(res.DKV.RemoteKeys) / float64(totalKeys)
	}
	return res
}

// evalStage evaluates the averaged perplexity; the loop runs it after every
// EvalEvery-th iteration (Stage.Due). Each rank folds the current state
// into the running posterior average over its held-out shard (the shared
// HeldOutEval stage), the master reduces the global value (Eqn 7) and
// broadcasts it, so every rank records it.
func (nd *node) evalStage(t int) error {
	partials, err := nd.eval.Fold(nd.store, nd.beta, nd.opt.Threads)
	if err != nil {
		return fmt.Errorf("perplexity at %d: %w", t, err)
	}
	gathered, err := nd.comm.Gather(0, wire.AppendFloat64s(nil, partials))
	if err != nil {
		return err
	}
	var out []byte
	if nd.rank == 0 {
		var logSum float64
		for r := 0; r < nd.size; r++ {
			buf := gathered[r]
			vals := make([]float64, len(buf)/8)
			wire.Float64s(buf, 0, len(vals), vals)
			for _, v := range vals {
				logSum += v
			}
		}
		out = wire.AppendUint64(nil, math.Float64bits(core.PerplexityFromLogSum(logSum, nd.held.Len())))
	}
	out, err = nd.comm.Bcast(0, out)
	if err != nil {
		return err
	}
	v := math.Float64frombits(wire.Uint64At(out, 0))
	nd.perp = append(nd.perp, PerpPoint{Iter: t + 1, Value: v, Elapsed: time.Since(nd.start)})
	// The value is identical on every rank; emit the event once, from rank 0.
	if nd.ob.Rec != nil && nd.rank == 0 {
		nd.ob.Rec.EvalDone(t+1, v)
	}
	return nil
}

// gatherState reads the whole π table back out of the DKV store into a
// core.State through the one whole-table sweep; master-only, for the final
// estimate and the posterior samples. When the master owns every row in
// RAM, the state is its partition's arrays themselves, not a copy.
func (nd *node) gatherState() (*core.State, error) {
	st := &core.State{
		N:      nd.n,
		K:      nd.k,
		Theta:  append([]float64(nil), nd.theta...),
		Beta:   append([]float64(nil), nd.beta...),
		Pi:     nd.ownedPi,
		PhiSum: nd.ownedSum,
	}
	if len(nd.ownedSum) == nd.n {
		return st, nil
	}
	st.Pi, st.PhiSum = make([]float32, nd.n*nd.k), make([]float64, nd.n)
	err := store.Sweep(nd.store, st.Pi, func(lo int, rows *store.Rows) error {
		copy(st.PhiSum[lo:], rows.PhiSum)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}
