package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/transport"
)

const distRanks = 2

// distExtra is what only a distributed pass produces.
type distExtra struct {
	Result    *dist.Result
	StartupMS float64 // RunOnTransport wall − Result.Elapsed
}

// dialMesh brings up a full TCP mesh of n ranks on loopback, all in this
// process, and returns one endpoint per rank.
func dialMesh(n int) ([]transport.Conn, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = addr
	}
	conns := make([]transport.Conn, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, err := transport.DialMesh(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			conns[r] = c
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			closeMesh(conns)
			return nil, fmt.Errorf("mesh rank %d: %w", r, err)
		}
	}
	return conns, nil
}

// Listen ports for the meshes. DialMesh binds a given address itself, so the
// port has to be chosen first and released; a port the kernel hands out (":0")
// comes from the ephemeral range, where the dial retries of the peer rank can
// take it again before the listener binds. These stay below that range
// (32768 up on Linux) and start at a per-process offset.
const (
	meshPortBase = 20000
	meshPortSpan = 10000
)

var meshPortNext = os.Getpid() * 131

// freeAddr returns a loopback address nothing listens on.
func freeAddr() (string, error) {
	var lastErr error
	for try := 0; try < 200; try++ {
		meshPortNext++
		addr := fmt.Sprintf("127.0.0.1:%d", meshPortBase+meshPortNext%meshPortSpan)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		ln.Close()
		return addr, nil
	}
	return "", fmt.Errorf("no free loopback port: %w", lastErr)
}

func closeMesh(conns []transport.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// distOptions is the engine configuration of the two distributed workloads:
// 2 ranks × 1 thread, pipeline on; hot adds the cross-iteration LRU cache.
func distOptions(hot bool) dist.Options {
	opt := dist.Options{
		Threads:        1,
		Pipeline:       true,
		MinibatchPairs: minibatchM,
		NeighborCount:  neighborCount,
	}
	if hot {
		opt.HotRowCache = hotCacheRows
		opt.HotCacheCrossIter = true
		opt.HotCachePolicy = "lru"
	}
	return opt
}

// runDist dials a fresh mesh and runs b.Iters iterations over it. Iteration
// boundaries come from rank 0's FaultHook (a hook that returns nil), the one
// per-iteration callback the engine offers from outside; the end of the last
// iteration is the first boundary plus Result.Elapsed, the master's own
// timer around its loop.
func runDist(in *inputs, opt dist.Options, b budget, traced bool, sp *spanner) (*passResult, error) {
	conns, err := dialMesh(distRanks)
	if err != nil {
		return nil, err
	}
	defer closeMesh(conns)

	endPass := sp.start("bench.pass", -1)
	defer endPass()
	ts := make([]time.Time, 0, b.Iters+1)
	var tsNS []int64
	opt.Iterations = b.Iters
	opt.EvalEvery = b.EvalEvery
	opt.Trace = traced
	opt.FaultHook = func(rank, _ int) error {
		if rank == 0 {
			ts = append(ts, time.Now())
			if sp != nil {
				tsNS = append(tsNS, sp.tr.Now())
			}
		}
		return nil
	}
	m0 := memNow()
	endCall := sp.start("dist.RunOnTransport", -1)
	t0 := time.Now()
	res, err := dist.RunOnTransport(in.Cfg, in.Train, in.Held, opt, conns)
	wall := time.Since(t0)
	mem := memSince(m0)
	if err != nil {
		endCall()
		return nil, err
	}
	if len(ts) != b.Iters {
		endCall()
		return nil, fmt.Errorf("dist: hook saw %d iterations, want %d", len(ts), b.Iters)
	}
	ts = append(ts, ts[0].Add(res.Elapsed))
	if sp != nil {
		tsNS = append(tsNS, tsNS[0]+res.Elapsed.Nanoseconds())
		for t := 0; t < b.Iters; t++ {
			sp.interval("bench.iter", t, tsNS[t], tsNS[t+1])
		}
	}
	endCall()

	pr := &passResult{
		Iters:  b.Iters,
		Wall:   res.Elapsed,
		IterMS: deltasMS(ts),
		Phases: res.Phases.Snapshot(),
		State:  res.State,
		Mem:    mem,
		Dist:   &distExtra{Result: res, StartupMS: ms(wall - res.Elapsed)},
	}
	for t := 1; t <= b.Iters; t++ {
		pr.IterEnd = append(pr.IterEnd, ts[t].Sub(ts[0]))
	}
	for _, p := range res.Perplexity {
		pr.EvalIter = append(pr.EvalIter, p.Iter)
		pr.EvalPpx = append(pr.EvalPpx, p.Value)
	}
	if n := len(pr.EvalPpx); n > 0 {
		pr.FinalPpx = pr.EvalPpx[n-1]
	}
	// One evaluation's cost: the perplexity stage's mean interval.
	if c := res.Phases.Count(engine.PhasePerplexity); c > 0 {
		pr.EvalMS = []float64{ms(res.Phases.Total(engine.PhasePerplexity)) / float64(c)}
	}
	if traced {
		pr.Bundles = append([]obs.TraceBundle(nil), res.Trace...)
	}
	return pr, nil
}

// warmDist is the distributed workloads' share of set-up: dial a mesh and
// take the engine through its start-up (shard init, first barrier) with a
// one-iteration run. It returns the instant rank 0 entered that iteration —
// set-up is complete then — so the iteration itself is not counted.
func warmDist(in *inputs, opt dist.Options) (ready time.Time, err error) {
	conns, err := dialMesh(distRanks)
	if err != nil {
		return ready, err
	}
	defer closeMesh(conns)
	opt.Iterations = 1
	opt.FaultHook = func(rank, _ int) error {
		if rank == 0 {
			ready = time.Now()
		}
		return nil
	}
	if _, err := dist.RunOnTransport(in.Cfg, in.Train, in.Held, opt, conns); err != nil {
		return ready, err
	}
	return ready, nil
}
