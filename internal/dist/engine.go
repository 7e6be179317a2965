package dist

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dkv"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// node is one rank's engine instance: the wiring — topology, deployments
// and collectives — around the shared stage layer of internal/core, which
// holds all phase math. The stages read and write π through a
// store.DKVStore, the same PiStore contract the local sampler satisfies
// with a store.LocalStore; the rows this rank owns are a LocalStore too.
type node struct {
	cfg  core.Config
	opt  Options
	comm *cluster.Comm
	rank int
	size int

	store *store.DKVStore
	n, k  int
	// ownedLo, ownedPi and ownedSum back this rank's partition, the rows
	// [ownedLo, ownedLo+len(ownedSum)) as a LocalStore, unless
	// Options.Partitions supplies it (ownedPi and ownedSum are then nil); run
	// fills them with the initial rows unless a restart overwrites them from
	// the checkpoint.
	ownedLo  int
	ownedPi  []float32
	ownedSum []float64

	// master-only
	g        *graph.Graph
	edges    sampling.EdgeStrategy
	prefetch *engine.Prefetcher[*sampling.Batch]

	// all ranks
	held  *graph.HeldOut
	view  *workerView
	neigh sampling.NeighborStrategy
	theta []float64
	beta  []float64
	reg   *obs.Registry // this rank's telemetry registry
	// ob is this rank's one observer: the phase table, plus a recorder when
	// Options.Events/Monitor ask for telemetry (which also arms transport
	// phase labelling) and a tracer when Options.Trace is set (shared with
	// the cluster and DKV layers, whose spans nest under the stage's).
	ob   *obs.Observer
	phi  *core.PhiStage
	eval *core.HeldOutEval // held-out shard, PerplexityChunk-aligned
	loop *engine.Loop

	// per-iteration dataflow between stages
	dep    *deployment
	newPhi []float64

	// shares are the minibatch share weights the deployments split by:
	// uniform ones unless straggler mitigation (Options.Rebalance) moves them.
	shares []float64
	// straggler mitigation (Options.Rebalance)
	rebal    *engine.Rebalancer // master only: the hysteresis state machine
	waitCtr  []*obs.Counter     // this rank's recv_wait_ns counter per peer
	waitBase []int64            // waitCtr values at the last window edge

	perp       []PerpPoint
	start      time.Time
	startIter  int          // the first iteration this run executes (Options.RestartPath)
	end        int          // one past the last iteration of the loop now running
	snap       obs.Snapshot // reg at the end-of-run fence
	finalState *core.State  // master only, set at the end
}

func newNode(cfg core.Config, opt Options, comm *cluster.Comm, g *graph.Graph, held *graph.HeldOut, reg *obs.Registry) (*node, error) {
	nd := &node{
		cfg:   cfg,
		opt:   opt,
		comm:  comm,
		rank:  comm.Rank(),
		size:  comm.Size(),
		n:     g.NumVertices(),
		k:     cfg.K,
		held:  held,
		ob:    obs.NewObserver(),
		reg:   reg,
		theta: core.InitTheta(cfg),
		beta:  make([]float64, cfg.K),
	}
	nd.refreshBeta()
	// A recorder exists only when someone consumes its output: an event sink,
	// or the monitor (which needs the run.* gauges refreshed on rank 0).
	if opt.Events != nil || (opt.Monitor != nil && nd.rank == 0) {
		nd.ob.Rec = obs.NewRunRecorder(opt.Events, nd.rank, reg)
		// Armed only beside a recorder: see Observer.PhaseLabel.
		nd.ob.PhaseLabel = comm.SetPhase
	}
	if opt.Monitor != nil && nd.rank == 0 {
		opt.Monitor.Attach(reg)
	}
	if opt.Trace {
		nd.ob.Tracer = obs.NewTracer(nd.rank, 0)
		if opt.Events != nil {
			nd.ob.Tracer.StreamTo(opt.Events)
		}
		comm.SetTracer(nd.ob.Tracer)
	}
	nd.shares = make([]float64, nd.size)
	for i := range nd.shares {
		nd.shares[i] = 1
	}
	if opt.Rebalance {
		nd.waitCtr = make([]*obs.Counter, nd.size)
		for p := range nd.waitCtr {
			nd.waitCtr[p] = reg.Counter(obs.PeerCounterName(p, obs.PeerRecvWaitNS))
		}
		nd.waitBase = make([]int64, nd.size)
		if nd.rank == 0 {
			rb, err := engine.NewRebalancer(nd.size)
			if err != nil {
				return nil, err
			}
			nd.rebal = rb
		}
	}

	var heldSet *graph.EdgeSet
	var heldTouch []int32
	if held != nil {
		set := graph.NewEdgeSet(held.Len())
		heldTouch = make([]int32, nd.n)
		for _, e := range held.Pairs {
			set.Add(e)
			heldTouch[e.A]++
			heldTouch[e.B]++
		}
		heldSet = &set
		hLo, hHi := engine.SplitChunkAligned(held.Len(), core.PerplexityChunk, nd.size, nd.rank)
		nd.eval = core.NewHeldOutEval(held, cfg.Delta, hLo, hHi)
	}

	nd.view = newWorkerView(nd.n, heldSet, heldTouch)
	var err error
	nd.neigh, err = core.NewNeighborStrategy(opt.samplerOptions(), nd.view)
	if err != nil {
		return nil, err
	}

	if nd.rank == 0 {
		nd.g = g
		nd.edges, err = core.NewEdgeStrategy(opt.samplerOptions(), g, heldSet)
		if err != nil {
			return nil, err
		}
		// The master-side pipeline of Section III-D: iteration t+1's
		// minibatch is drawn while iteration t computes, so the draw reports
		// its interval keyed by its own iteration and lands in iteration
		// t+1's event.
		nd.prefetch = engine.NewPrefetcher(func(t int) *sampling.Batch {
			defer nd.ob.Interval(t, engine.PhaseDrawMinibatch, obs.TraceNow())
			batch := &sampling.Batch{}
			core.DrawMinibatch(&nd.cfg, nd.edges, t, batch)
			return batch
		})
	}

	var owned store.PiStore
	if opt.Partitions != nil {
		owned = opt.Partitions[nd.rank]
	} else {
		lo, hi := dkv.Range(nd.n, nd.size, nd.rank)
		nd.ownedLo, nd.ownedPi, nd.ownedSum = lo, make([]float32, (hi-lo)*nd.k), make([]float64, hi-lo)
		owned = store.NewLocal(nd.ownedPi, nd.ownedSum, nd.k, opt.Threads)
	}
	nd.store, err = store.NewDKV(comm.Conn(), nd.n, cfg.K, opt.Threads, reg, owned)
	if err != nil {
		return nil, err
	}
	if nd.ob.Tracer != nil {
		nd.store.SetTracer(nd.ob.Tracer)
	}
	nd.phi = &core.PhiStage{
		Cfg:       &nd.cfg,
		Store:     nd.store,
		Neigh:     nd.neigh,
		Threads:   opt.Threads,
		Pipelined: opt.Pipeline && nd.size > 1, // one rank reads only local memory
		Obs:       nd.ob,
	}
	nd.loop = nd.buildLoop()
	// "shares" is initial: the reshard stage writes next window's shares at
	// the END of an iteration, so the deploy at the top always reads a value
	// produced before the iteration started (uniform at t=0).
	if err := nd.loop.Validate([]string{"graph", "pi", "theta", "beta", "shares"}); err != nil {
		return nil, err
	}
	return nd, nil
}

func (nd *node) refreshBeta() {
	for k := 0; k < nd.k; k++ {
		nd.beta[k] = nd.theta[k*2+1] / (nd.theta[k*2] + nd.theta[k*2+1])
	}
}

// trainingStages are the stages that advance the chain: the shared stages
// of internal/core wrapped in this engine's scatter/gather/broadcast wiring,
// with an unnamed (untimed) collective barrier between phases whose read and
// write sets would otherwise overlap.
func (nd *node) trainingStages() []engine.Stage {
	barrier := func(int) error { return nd.comm.Barrier() }
	return []engine.Stage{
		{
			Name:   engine.PhaseDeployMinibatch,
			Reads:  []string{"graph", "shares"},
			Writes: []string{"batch"},
			Run:    nd.deployStage,
		},
		{
			Name:   engine.PhaseUpdatePhi,
			Reads:  []string{"batch", "pi", "beta"},
			Writes: []string{"new_phi"},
			Run:    nd.phiStage,
		},
		{Run: barrier, Barrier: true}, // update_phi reads old π; fence before overwriting
		{
			Name:   engine.PhaseUpdatePi,
			Reads:  []string{"batch", "new_phi"},
			Writes: []string{"pi"},
			Run:    nd.piStage,
		},
		{Run: barrier, Barrier: true}, // update_beta_theta reads the new π everywhere
		{
			Name:   engine.PhaseUpdateBetaTheta,
			Reads:  []string{"batch", "pi", "theta"},
			Writes: []string{"theta", "beta"},
			Run:    nd.thetaStage,
		},
	}
}

// buildLoop assembles the distributed iteration: the training stages, then
// the optional ones that only read the fenced state or move work.
func (nd *node) buildLoop() *engine.Loop {
	loop := &engine.Loop{Obs: nd.ob, Stages: nd.trainingStages()}
	if nd.opt.Rebalance {
		// The reshard collective runs at window boundaries only, on every
		// rank alike, which keeps the collective tag sequence aligned without
		// per-iteration traffic.
		loop.Stages = append(loop.Stages, engine.Stage{
			Name:   engine.PhaseReshard,
			Writes: []string{"shares"},
			Due:    engine.Every(cmp.Or(nd.opt.RebalanceWindow, engine.DefaultRebalanceWindow)),
			Run:    nd.reshardStage,
		})
	}
	if nd.opt.Publisher != nil && nd.rank == 0 {
		// π was fenced by the barrier before update_beta_theta, so the
		// publication after it is legal (Validate checks exactly this). At
		// runtime the stage runs last in the iteration: the serving rank (the
		// master) gathers while its peers sit in the next deploy's scatter
		// receive — no rank can reach its next π write until the master, and
		// therefore this gather, is done.
		loop.Stages = append(loop.Stages, engine.Stage{
			Name:      engine.PhasePublish,
			Reads:     []string{"pi", "beta"},
			Publishes: []string{"pi"},
			Due:       engine.Every(nd.opt.PublishEvery),
			Run:       nd.publishStage,
		})
	}
	if nd.opt.CheckpointPath != "" && nd.rank == 0 {
		// Master-only, like publish, and under the same consistency argument:
		// π was fenced by the pre-θ barrier, and the master gathers peer
		// shards while those peers are parked in the next iteration's
		// collective receive (or the end-of-run fence), DKV goroutines serving.
		last, every := nd.opt.Iterations, nd.opt.CheckpointEvery
		loop.Stages = append(loop.Stages, engine.Stage{
			Name:      engine.PhaseCheckpoint,
			Reads:     []string{"pi", "theta"},
			Publishes: []string{"pi"},
			Due:       func(t int) bool { return t+1 == last || every > 0 && (t+1)%every == 0 },
			Run:       nd.checkpointStage,
		})
	}
	if nd.opt.EvalEvery > 0 {
		// Held-out evaluation reads the fenced π like publish, but every rank
		// folds its shard and joins the reduction.
		loop.Stages = append(loop.Stages, engine.Stage{
			Name:  engine.PhasePerplexity,
			Reads: []string{"pi", "beta"},
			Due:   engine.Every(nd.opt.EvalEvery),
			Run:   nd.evalStage,
		})
	}
	if hook := nd.opt.FaultHook; hook != nil {
		loop.FaultHook = func(t int) error { return hook(nd.rank, t) }
	}
	return loop
}

// run is one rank's SPMD main. Any error is converted into a fabric-wide
// abort before returning, so no peer can deadlock waiting for a message
// this rank will never send — the engine's bounded-time failure guarantee.
func (nd *node) run() (err error) {
	defer nd.store.Close()
	defer func() {
		if err == nil {
			return
		}
		// If we are merely reacting to someone else's abort, the fabric is
		// already poisoned; re-broadcasting would overwrite nothing (first
		// cause wins) but would waste frames on a dying mesh.
		if _, isAbort := transport.AsAbort(err); !isAbort {
			nd.comm.Abort(fmt.Errorf("rank %d: %w", nd.rank, err))
		}
	}()
	nd.start = time.Now()

	// Populate π: from the restart checkpoint when resuming (the master
	// writes every shard, so no rank initialises its own), from the shared
	// deterministic init otherwise — unless Options.Partitions came with
	// their initial rows.
	if nd.opt.RestartPath != "" {
		if err := nd.restart(); err != nil {
			return err
		}
	} else {
		for i := range nd.ownedSum { // every rank draws its own rows at once
			nd.ownedSum[i] = core.InitPiRow(nd.cfg, nd.ownedLo+i, nd.ownedPi[i*nd.k:(i+1)*nd.k])
		}
	}
	if err := nd.comm.Barrier(); err != nil {
		return err
	}

	// The loop starts here on every rank: the per-iteration counter deltas
	// and the first mitigation window count from this point, so neither the
	// restart's streaming nor the wait in the barrier above is charged to the
	// first iteration.
	rec := nd.ob.Rec
	if rec != nil {
		rec.RunStart(nd.size, nd.opt.Iterations)
	}
	if nd.opt.Rebalance {
		nd.windowWaits()
	}
	totalStart := obs.TraceNow()
	nd.end = nd.opt.Iterations
	if err := nd.loop.Run(nd.startIter, nd.end); err != nil {
		return err
	}
	nd.ob.Interval(obs.NoIter, engine.PhaseTotal, totalStart)
	// The run ends here on every rank: posterior sampling and state
	// collection below are not the run. A buffering tracer keeps its spans
	// for Result.Trace.
	if nd.ob.Tracer != nil {
		nd.ob.Tracer.StreamTo(nil)
	}
	// Past this fence every rank has closed its last stage (its iter and span
	// lines precede run_end) and the master's last checkpoint and publication
	// reads are served: the snapshot counts each frame of the run at both ends.
	if err := nd.comm.Barrier(); err != nil {
		return err
	}
	nd.snap = nd.reg.Snapshot()
	if rec != nil && nd.rank == 0 {
		rec.RunEnd(nd.opt.Iterations)
	}
	// A second fence keeps the master's reads below out of the peers' snapshots.
	if err := nd.comm.Barrier(); err != nil {
		return err
	}

	if nd.opt.PosteriorSamples > 0 {
		if err := nd.posterior(); err != nil {
			return err
		}
	} else if nd.rank == 0 && nd.opt.Partitions == nil {
		// Assemble the full state at the master while all stores still serve.
		st, err := nd.gatherState()
		if err != nil {
			return err
		}
		nd.finalState = st
	}
	return nd.comm.Barrier()
}

// posterior continues the chain for Options.PosteriorSamples × posteriorGap
// iterations of the training stages alone, and the master folds the state
// it gathers every posteriorGap iterations into the posterior mean that
// becomes the final state. The peers serve each gather from their next
// deploy's scatter receive (or the closing barrier), as for a checkpoint.
// None of it is the run: the stages run unobserved.
func (nd *node) posterior() error {
	runOb := nd.ob
	nd.ob, nd.phi.Obs = nil, nil
	defer func() { nd.ob, nd.phi.Obs = runOb, runOb }()
	loop := &engine.Loop{Stages: nd.trainingStages()}
	var mean *core.PosteriorMean
	if nd.rank == 0 {
		mean = core.NewPosteriorMean(nd.n, nd.k)
	}
	nd.end = nd.opt.Iterations + nd.opt.PosteriorSamples*posteriorGap
	for t := nd.opt.Iterations; t < nd.end; t += posteriorGap {
		if err := loop.Run(t, t+posteriorGap); err != nil {
			return err
		}
		if nd.rank == 0 {
			st, err := nd.gatherState()
			if err != nil {
				return err
			}
			mean.Add(st)
		}
	}
	if nd.rank == 0 {
		nd.finalState = mean.State()
	}
	return nil
}

// restart resumes from Options.RestartPath: the master streams the file's
// rows into the DKV table through the store's WritePiRows — the one checkpoint
// reader, core.LoadStoreFile, in bounded batches — while the peers' DKV
// goroutines serve the writes, then broadcasts θ and the stored iteration.
// A master-side failure returns before the broadcast, and the deferred abort
// releases the peers waiting in it.
func (nd *node) restart() error {
	var buf []byte
	if nd.rank == 0 {
		theta, iter, err := core.LoadStoreFile(nd.opt.RestartPath, nd.store)
		if err == nil {
			err = core.CheckResumeIter(iter, nd.opt.Iterations)
		}
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		buf = wire.AppendUint64(wire.AppendFloat64s(nil, theta), uint64(iter))
	}
	buf, err := nd.comm.Bcast(0, buf)
	if err != nil {
		return err
	}
	wire.Float64s(buf, 0, 2*nd.k, nd.theta)
	nd.refreshBeta()
	nd.startIter = int(wire.Uint64At(buf, 16*nd.k))
	return nil
}

// deployStage is the minibatch deployment: the master draws (or collects
// the prefetched) minibatch, partitions it, and scatters each peer's share,
// keeping its own as a value; every peer decodes its deployment, and every
// rank loads its share's adjacency into its sampling view.
func (nd *node) deployStage(t int) error {
	var dep *deployment
	if nd.rank == 0 {
		batch := nd.prefetch.Next(t)
		mine, parts := nd.buildDeployments(t, batch)
		if nd.opt.Pipeline && t+1 < nd.end {
			nd.prefetch.Start(t + 1)
		}
		if _, err := nd.comm.Scatter(0, parts); err != nil {
			return err
		}
		dep = mine
	} else {
		mine, err := nd.comm.Scatter(0, nil)
		if err != nil {
			return err
		}
		if dep, err = decodeDeployment(mine); err != nil {
			return err
		}
	}
	nd.dep = dep
	nd.view.load(dep)
	return nil
}

// phiStage runs the shared update_phi stage (reads old π only) over this
// rank's deployment.
func (nd *node) phiStage(t int) error {
	if delay := nd.opt.ComputeDelay; delay != nil {
		if d := delay(nd.rank, len(nd.dep.nodes)); d > 0 {
			time.Sleep(d)
		}
	}
	n := len(nd.dep.nodes) * nd.k
	if cap(nd.newPhi) < n {
		nd.newPhi = make([]float64, n)
	}
	nd.newPhi = nd.newPhi[:n]
	return nd.phi.Run(t, nd.cfg.StepSize(t), nd.dep.nodes, nd.beta, nd.newPhi)
}

// windowWaits returns this rank's per-peer recv-wait since the previous
// window edge, in milliseconds — its row of the straggler matrix, restricted
// to the window — and makes now the next window's edge.
func (nd *node) windowWaits() []float64 {
	out := make([]float64, nd.size)
	for p, c := range nd.waitCtr {
		v := c.Load()
		out[p] = float64(v-nd.waitBase[p]) / 1e6
		nd.waitBase[p] = v
	}
	return out
}

// reshardStage is the mitigation collective. On window boundaries every rank
// gathers its windowed per-peer recv-wait vector at the master; the master
// folds the column sums (obs.ImposedWaits, the statistic of obs.PeerMatrix),
// feeds the window to the rebalancer, and broadcasts the
// resulting share weights, which the next deployments split by. The loop
// runs it on window boundaries only (Stage.Due). The weights only decide
// WHO computes which minibatch chunk — the trajectory is bit-identical under
// any weight vector.
func (nd *node) reshardStage(t int) error {
	gathered, err := nd.comm.Gather(0, wire.AppendFloat64s(nil, nd.windowWaits()))
	if err != nil {
		return err
	}
	var out []byte
	if nd.rank == 0 {
		rows := make([][]float64, nd.size)
		for r := range rows {
			rows[r] = make([]float64, nd.size)
			wire.Float64s(gathered[r], 0, nd.size, rows[r])
		}
		imposed := obs.ImposedWaits(rows)
		weights, changed := nd.rebal.ObserveWindow(imposed)
		rep := nd.rebal.LastReport()
		nd.reg.Counter(obs.CtrReshardWindows).Inc()
		nd.reg.Counter(obs.CtrReshardFlags).Add(int64(len(rep.Flagged)))
		flag := byte(0)
		if changed {
			flag = 1
			nd.reg.Counter(obs.CtrReshardChanges).Inc()
			if nd.ob.Rec != nil {
				waitMS := make(map[int]float64, nd.size)
				for p, w := range imposed {
					waitMS[p] = w
				}
				nd.ob.Rec.RebalanceDone(t, weights, rep.Flagged, waitMS)
			}
		}
		out = append([]byte{flag}, wire.AppendFloat64s(nil, weights)...)
	}
	out, err = nd.comm.Bcast(0, out)
	if err != nil {
		return err
	}
	wire.Float64s(out[1:], 0, nd.size, nd.shares)
	return nil
}

// checkpointStage writes the coordinated checkpoint: the master's loop runs
// it at the end of the last iteration and of every CheckpointEvery-th one.
// It streams the full table out of the DKV read path in bounded batches
// (peers serve while fenced in the next collective). The stored iteration
// t+1 is "iterations completed", so a restart resumes at exactly the next
// iteration's RNG streams.
func (nd *node) checkpointStage(t int) error {
	if err := core.SaveStoreFile(nd.opt.CheckpointPath, nd.store, nd.theta, t+1); err != nil {
		return fmt.Errorf("checkpoint at %d: %w", t, err)
	}
	return nil
}

// piStage commits the staged φ rows through the DKV store (update_pi).
func (nd *node) piStage(t int) error {
	return nd.store.WriteRows(nd.dep.nodes, nd.newPhi)
}

// publishStage seals the full post-iteration π view into an immutable
// snapshot and hands it to Options.Publisher; the master's loop runs it after
// every PublishEvery-th iteration. Version t+1 = iterations completed.
func (nd *node) publishStage(t int) error {
	snap, err := store.TakeSnapshot(nd.store, t+1, nd.beta)
	if err != nil {
		return err
	}
	return nd.opt.Publisher.Publish(snap)
}

// thetaStage computes this rank's per-chunk θ-gradient partials through the
// shared stage, gathers them at the master (which folds them in global
// chunk order, applies Eqn 3) and broadcasts the new θ.
func (nd *node) thetaStage(t int) error {
	k := nd.k
	partials, err := core.ThetaPartials(&nd.cfg, nd.store, nd.dep.pairs, nd.dep.link,
		nd.theta, nd.beta, nd.opt.Threads)
	if err != nil {
		return err
	}
	gathered, err := nd.comm.Gather(0, wire.AppendFloat64s(nil, partials))
	if err != nil {
		return err
	}
	var thetaBytes []byte
	if nd.rank == 0 {
		grad := make([]float64, 2*k)
		for r := 0; r < nd.size; r++ {
			buf := gathered[r]
			vals := make([]float64, len(buf)/8)
			wire.Float64s(buf, 0, len(vals), vals)
			core.FoldThetaPartials(grad, vals, k)
		}
		core.ApplyThetaUpdate(&nd.cfg, nd.cfg.StepSize(t), nd.dep.scale, grad, nd.theta,
			mathx.NewStream(nd.cfg.Seed, core.StreamTheta(t)))
		thetaBytes = wire.AppendFloat64s(nil, nd.theta)
	}
	thetaBytes, err = nd.comm.Bcast(0, thetaBytes)
	if err != nil {
		return err
	}
	wire.Float64s(thetaBytes, 0, 2*k, nd.theta)
	nd.refreshBeta()
	return nil
}

// buildDeployments partitions the batch across ranks in contiguous
// rank-ordered ranges sized by the current shares (engine.SplitWeighted):
// vertices one by one (each with its adjacency from the master's graph),
// pairs on ThetaChunk boundaries so the gradient fold order matches the
// sequential engine. Uniform shares give the even split. The master's own
// share is returned as a value; parts holds the peers' encoded shares
// (parts[0] is nil: Scatter never sends the root's part).
func (nd *node) buildDeployments(t int, batch *sampling.Batch) (mine *deployment, parts [][]byte) {
	parts = make([][]byte, nd.size)
	for r := 0; r < nd.size; r++ {
		nLo, nHi := engine.SplitWeighted(len(batch.Nodes), 1, nd.shares, r)
		pLo, pHi := engine.SplitWeighted(len(batch.Pairs), core.ThetaChunk, nd.shares, r)
		d := &deployment{
			iter:    t,
			nodes:   batch.Nodes[nLo:nHi],
			adj:     make([][]int32, nHi-nLo),
			pairs:   batch.Pairs[pLo:pHi],
			link:    batch.Linked[pLo:pHi],
			scale:   batch.Scale,
			chunkLo: pLo / core.ThetaChunk,
		}
		for i, a := range d.nodes {
			d.adj[i] = nd.g.Neighbors(int(a))
		}
		if r == 0 {
			mine = d
		} else {
			parts[r] = encodeDeployment(d)
		}
	}
	return mine, parts
}
