package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// passResult is everything one pass over an iteration budget produced; the
// metric code reads it, the pass itself computes nothing but samples.
type passResult struct {
	Iters   int
	Wall    time.Duration // first iteration to the last scheduled work of the pass
	IterMS  []float64     // wall-clock of each iteration
	IterEnd []time.Duration

	EvalIter []int // 1-based iteration of each evaluation
	EvalPpx  []float64
	EvalMS   []float64
	FinalPpx float64

	// Phases holds per-stage totals over the pass under the engine's Table
	// III names (engine.Phase*), the slowest rank's for a distributed run.
	Phases map[string]time.Duration
	State  *core.State // final state, for Validate

	Mem memDelta

	SealMS        []float64 // mmap_tiered
	PublishIterMS []float64 // train_serve: iterations that published
	PlainIterMS   []float64 // train_serve: the others
	FlipMS        []float64 // train_serve: Publisher.LastFlipNS per publish
	Queries       *loopStats
	VersionErrors int // responses whose snapshot version went backwards

	Dist     *distExtra        // distributed workloads only
	Bundles  []obs.TraceBundle // engine spans of a traced pass
	TierStat store.TierStats
}

// memDelta is the Go runtime's allocation and GC activity over a pass.
type memDelta struct {
	Mallocs    uint64
	AllocBytes uint64
	GCCycles   uint32
	PauseNS    uint64
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(m0 runtime.MemStats) memDelta {
	m1 := memNow()
	return memDelta{
		Mallocs:    m1.Mallocs - m0.Mallocs,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		GCCycles:   m1.NumGC - m0.NumGC,
		PauseNS:    m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// localKind selects which single-process workload a localInst is.
type localKind int

const (
	kindSeq   localKind = iota // in-RAM LocalStore, Threads = 2
	kindMmap                   // TieredStore over MmapStore in a fresh directory
	kindServe                  // Threads = 1 with a Publisher feeding a serve.Server
)

// localInst is a built core.Sampler workload: everything set-up creates and
// close releases.
type localInst struct {
	kind   localKind
	in     *inputs
	s      *core.Sampler
	tracer *obs.Tracer // nil unless built for a traced pass

	dir  string // kindMmap: the store directory
	mm   *store.MmapStore
	tier *store.TieredStore

	sv *serving // kindServe
}

// buildLocal creates the store (if any), the server (if any) and the sampler.
// tmpRoot is where an mmap store's directory is made.
func buildLocal(kind localKind, in *inputs, b budget, traced bool, tmpRoot string) (*localInst, error) {
	li := &localInst{kind: kind, in: in}
	opt := core.SamplerOptions{MinibatchPairs: minibatchM, NeighborCount: neighborCount, Threads: 2}
	if traced {
		li.tracer = obs.NewTracer(0, 0)
		opt.Tracer = li.tracer
	}
	ok := false
	defer func() {
		if !ok {
			li.close()
		}
	}()
	switch kind {
	case kindMmap:
		dir, err := os.MkdirTemp(tmpRoot, "pi-")
		if err != nil {
			return nil, err
		}
		li.dir = dir
		// CreateMmap wants to make the directory itself.
		if err := os.Remove(dir); err != nil {
			return nil, err
		}
		li.mm, err = store.CreateMmap(dir, in.Train.NumVertices(), in.Cfg.K, store.MmapOptions{Threads: opt.Threads})
		if err != nil {
			return nil, fmt.Errorf("creating mmap store: %w", err)
		}
		if err := li.mm.InitRows(core.ShellInit(in.Cfg)); err != nil {
			return nil, fmt.Errorf("initialising mmap store: %w", err)
		}
		li.tier, err = store.NewTiered(li.mm, nil, tierHotRows, opt.Threads, nil)
		if err != nil {
			return nil, fmt.Errorf("tiering mmap store: %w", err)
		}
		opt.Store = li.tier
	case kindServe:
		opt.Threads = 1
		sv, err := startServing()
		if err != nil {
			return nil, err
		}
		li.sv = sv
		opt.Publisher = sv.pub
		opt.PublishEvery = b.PublishEvery
	}
	s, err := core.NewSampler(in.Cfg, in.Train, in.Held, opt)
	if err != nil {
		return nil, fmt.Errorf("building sampler: %w", err)
	}
	li.s = s
	if kind == kindServe {
		// First publish: the initial state, so the server answers from the
		// first query on.
		snap, err := store.NewLocal(s.State.Pi, s.State.PhiSum, in.Cfg.K, 1).Snapshot(0, s.State.Beta)
		if err != nil {
			return nil, err
		}
		if err := li.sv.pub.Publish(snap); err != nil {
			return nil, err
		}
	}
	ok = true
	return li, nil
}

func (li *localInst) close() {
	if li.sv != nil {
		li.sv.stop()
	}
	if li.mm != nil {
		_ = li.mm.Close() // the directory is removed next; nothing to keep
	}
	if li.dir != "" {
		_ = os.RemoveAll(li.dir) // scratch data under the benchmark's own tmp root
	}
}

// run executes b.Iters iterations. sp is nil in the timed pass.
func (li *localInst) run(b budget, seed uint64, sp *spanner) (*passResult, error) {
	pr := &passResult{Iters: b.Iters}
	endPass := sp.start("bench.pass", -1)
	defer endPass()

	var stopQueries func() *loopStats
	if li.kind == kindServe {
		stopQueries = li.sv.startQueries(li.in.Train.NumVertices(), li.in.Cfg.K, seed, sp)
	}
	m0 := memNow()
	start := time.Now()
	for t := 0; t < b.Iters; t++ {
		endIter := sp.start("bench.iter", t)
		t0 := time.Now()
		endStep := sp.start("core.Sampler.TryStep", t)
		err := li.s.TryStep()
		endStep()
		d := ms(time.Since(t0))
		if err != nil {
			if stopQueries != nil {
				stopQueries()
			}
			return nil, fmt.Errorf("iteration %d: %w", t, err)
		}
		pr.IterMS = append(pr.IterMS, d)
		if li.kind == kindServe {
			if (t+1)%b.PublishEvery == 0 {
				pr.PublishIterMS = append(pr.PublishIterMS, d)
				pr.FlipMS = append(pr.FlipMS, float64(li.sv.pub.LastFlipNS())/1e6)
			} else {
				pr.PlainIterMS = append(pr.PlainIterMS, d)
			}
		}
		if b.EvalEvery > 0 && (t+1)%b.EvalEvery == 0 {
			li.eval(pr, t+1, sp)
		}
		if b.SealEvery > 0 && (t+1)%b.SealEvery == 0 {
			endSeal := sp.start("store.MmapStore.Seal", t)
			t1 := time.Now()
			_, err := li.mm.Seal()
			pr.SealMS = append(pr.SealMS, ms(time.Since(t1)))
			endSeal()
			if err != nil {
				return nil, fmt.Errorf("seal after iteration %d: %w", t, err)
			}
		}
		pr.IterEnd = append(pr.IterEnd, time.Since(start))
		endIter()
	}
	pr.Wall = time.Since(start)
	pr.Mem = memSince(m0)
	if stopQueries != nil {
		pr.Queries = stopQueries()
		pr.VersionErrors = li.sv.versionErrors()
	}
	if n := len(pr.EvalIter); n == 0 || pr.EvalIter[n-1] != b.Iters {
		li.eval(pr, b.Iters, sp)
	}
	pr.FinalPpx = pr.EvalPpx[len(pr.EvalPpx)-1]
	pr.Phases = li.s.Phases.Snapshot()
	pr.State = li.s.State
	if li.tier != nil {
		pr.TierStat = li.tier.Stats()
	}
	if li.tracer != nil {
		pr.Bundles = []obs.TraceBundle{li.tracer.Bundle()}
	}
	return pr, nil
}

func (li *localInst) eval(pr *passResult, iter int, sp *spanner) {
	end := sp.start("core.Sampler.EvalPerplexity", iter-1)
	t0 := time.Now()
	p := li.s.EvalPerplexity()
	pr.EvalMS = append(pr.EvalMS, ms(time.Since(t0)))
	end()
	pr.EvalIter = append(pr.EvalIter, iter)
	pr.EvalPpx = append(pr.EvalPpx, p)
}

// stageCover is the share of iteration wall-clock the engine's top-level
// stages account for; the rest is loop overhead.
func stageCover(phases map[string]time.Duration, iterWall time.Duration) float64 {
	var sum time.Duration
	for _, name := range []string{
		engine.PhaseDrawMinibatch, engine.PhaseDeployMinibatch, engine.PhaseUpdatePhi,
		engine.PhaseUpdatePi, engine.PhaseUpdateBetaTheta, engine.PhasePublish,
		engine.PhaseReshard, engine.PhaseCheckpoint,
	} {
		sum += phases[name]
	}
	if iterWall <= 0 {
		return 0
	}
	return float64(sum) / float64(iterWall)
}

// checkMmapDurable reopens the sealed directory and compares sampled rows
// with the live store: after the last Seal the generation must equal the
// number of seals and what is on disk must be what the run trained.
func (li *localInst) checkMmapDurable(wantGen int, seed uint64) error {
	ro, err := store.OpenMmap(li.dir, store.MmapOptions{Threads: 1})
	if err != nil {
		return fmt.Errorf("reopening sealed store: %w", err)
	}
	defer ro.Close()
	if got := ro.Generation(); got != uint64(wantGen) {
		return fmt.Errorf("sealed generation %d, want %d", got, wantGen)
	}
	ids := sampleIDs(li.mm.NumRows(), 1000, seed)
	var a, b store.Rows
	if err := ro.ReadRows(ids, &a); err != nil {
		return err
	}
	if err := li.tier.ReadRows(ids, &b); err != nil {
		return err
	}
	for i := range a.Pi {
		if a.Pi[i] != b.Pi[i] {
			return fmt.Errorf("reopened row %d differs from the live store", ids[i/a.K])
		}
	}
	for i := range a.PhiSum {
		if a.PhiSum[i] != b.PhiSum[i] {
			return fmt.Errorf("reopened Σφ of row %d differs from the live store", ids[i])
		}
	}
	return nil
}
