package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dkv"
	"repro/internal/mathx"
	"repro/internal/perfmodel"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/store"
)

// A probe calls one exported function of a layer directly, on inputs recorded
// from the workload, and reports the median over a few rounds. Probes run
// after the passes and their checks: some of them write.

const probeRounds = 7

// rounds runs fn probeRounds times and returns each round's duration.
func rounds(fn func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, probeRounds)
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// perSecond converts per-round durations into a median rate of n units.
func perSecond(ds []time.Duration, n int) float64 {
	rates := make([]float64, len(ds))
	for i, d := range ds {
		rates[i] = float64(n) / d.Seconds()
	}
	return median(rates)
}

func medianOf(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// minibatchReads reconstructs the π read set of the sampler's last minibatch
// — each vertex followed by its sampled neighbours, drawn from the same
// deterministic per-(iteration, vertex) stream update_phi used — and returns
// the flat id list with the per-vertex samples.
func minibatchReads(s *core.Sampler) (ids []int32, nodes []int32, samples []sampling.NeighborSample) {
	t := s.Iteration() - 1
	nodes = append(nodes, s.LastBatch().Nodes...)
	samples = make([]sampling.NeighborSample, len(nodes))
	for i, a := range nodes {
		s.Neighbors.Sample(a, mathx.NewStream(s.Cfg.Seed, core.StreamVertex(t, int(a))), &samples[i])
		ids = append(ids, a)
		ids = append(ids, samples[i].Nodes...)
	}
	return ids, nodes, samples
}

// probeStoreReads measures ReadRows on ps over the recorded read set, as one
// batched read (what the fused serial φ path issues against a local reader).
func probeStoreReads(ps store.PiStore, ids []int32) (float64, error) {
	var dst store.Rows
	ds, err := rounds(func() error { return ps.ReadRows(ids, &dst) })
	if err != nil {
		return 0, err
	}
	return perSecond(ds, len(ids)), nil
}

// probeStoreWrites measures WriteRows of the minibatch's vertices. The φ
// values written are the rows' current φ = π·Σφ, so the store's content is
// unchanged up to float32 rounding.
func probeStoreWrites(ps store.PiStore, nodes []int32) (float64, error) {
	var cur store.Rows
	if err := ps.ReadRows(nodes, &cur); err != nil {
		return 0, err
	}
	phi := make([]float64, len(cur.Pi))
	for i := range nodes {
		for k, v := range cur.PiRow(i) {
			phi[i*cur.K+k] = float64(v) * cur.PhiSum[i]
		}
	}
	ds, err := rounds(func() error { return ps.WriteRows(nodes, phi) })
	if err != nil {
		return 0, err
	}
	return perSecond(ds, len(nodes)), nil
}

// probeUpdatePhi times core.UpdatePhi per minibatch vertex on the recorded
// neighbour samples and the rows ps holds for them.
func probeUpdatePhi(s *core.Sampler, ps store.PiStore, nodes []int32, samples []sampling.NeighborSample) (float64, error) {
	k := s.Cfg.K
	var self store.Rows
	if err := ps.ReadRows(nodes, &self); err != nil {
		return 0, err
	}
	neigh := make([]store.Rows, len(nodes))
	rows := make([][][]float32, len(nodes))
	for i := range nodes {
		if err := ps.ReadRows(samples[i].Nodes, &neigh[i]); err != nil {
			return 0, err
		}
		for j := range samples[i].Nodes {
			rows[i] = append(rows[i], neigh[i].PiRow(j))
		}
	}
	sc := core.NewPhiScratch(k)
	newPhi := make([]float64, k)
	t := s.Iteration() - 1
	eps := s.Cfg.StepSize(t)
	ds, _ := rounds(func() error {
		for i, a := range nodes {
			core.UpdatePhi(&s.Cfg, eps, self.PiRow(i), self.PhiSum[i], rows[i],
				samples[i].Linked, samples[i].Scale, s.State.Beta,
				mathx.NewStream(s.Cfg.Seed, core.StreamVertex(t, int(a))), newPhi, sc)
		}
		return nil
	})
	return medianOf(ds, time.Nanosecond) / float64(len(nodes)), nil
}

// perfWorkload describes the benchmark's training problem to perfmodel.
func perfWorkload(in *inputs, nodesPerBatch int) perfmodel.Workload {
	return perfmodel.Workload{
		Name: in.Spec.Name, N: in.Train.NumVertices(), K: in.Cfg.K,
		MinibatchPairs: minibatchM, M: nodesPerBatch, NeighborCount: neighborCount,
		HeldOut: in.Held.Len(), MeanDegree: in.Train.MeanDegree(),
	}
}

// meshProbes is what the transport, dkv and cluster probes measured on ONE
// 2-rank TCP loopback mesh, raw baselines included, so that dkv.bw_over_raw
// never compares numbers from different meshes or runs (the paper's Fig 5
// discipline: qperf and the DKV store on the same wire).
type meshProbes struct {
	PingPongUS, StreamMBps                      float64
	Read1US, Read512US, Write512US, ReadMBps    float64
	BarrierUS, AllReduceUS, ScatterUS, GatherUS float64
}

const (
	// Application tags below the DKV store's (TagUserBase + 0x100 up).
	probeTagPing = cluster.TagUserBase + 0x1
	probeTagPong = cluster.TagUserBase + 0x2
	probeTagData = cluster.TagUserBase + 0x3

	batchRows    = 512      // the minibatch-sized DKV batch
	streamMsgs   = 64       // messages per stream round
	scatterBytes = 32 << 10 // per-rank part, a deployed minibatch share
	gatherBytes  = 2 << 10  // per-rank part, a barrier's write-set ids
	rttCalls     = 200      // round trips per round
)

// probeMesh runs every mesh probe. Rank 1 mirrors rank 0 on a goroutine;
// rank 0 holds the stopwatch.
func probeMesh(n, k int) (*meshProbes, error) {
	conns, err := dialMesh(distRanks)
	if err != nil {
		return nil, err
	}
	defer closeMesh(conns)
	mp := &meshProbes{}

	// pair runs a on rank 0 and b on rank 1 and waits for both.
	pair := func(a, b func() error) error {
		var wg sync.WaitGroup
		var errB error
		wg.Add(1)
		go func() { defer wg.Done(); errB = b() }()
		errA := a()
		if errA != nil {
			// Rank 1 may be blocked on a message that will never come.
			closeMesh(conns)
		}
		wg.Wait()
		if errA != nil {
			return errA
		}
		return errB
	}
	total := probeRounds * rttCalls

	// transport: ping-pong of an 8-byte message.
	var ds []time.Duration
	ping := make([]byte, 8)
	err = pair(func() error {
		var err error
		ds, err = rounds(func() error {
			for i := 0; i < rttCalls; i++ {
				if err := conns[0].Send(1, probeTagPing, ping); err != nil {
					return err
				}
				if _, err := conns[0].Recv(1, probeTagPong); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	}, func() error {
		for i := 0; i < total; i++ {
			m, err := conns[1].Recv(0, probeTagPing)
			if err != nil {
				return err
			}
			if err := conns[1].Send(0, probeTagPong, m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("transport ping-pong: %w", err)
	}
	mp.PingPongUS = medianOf(ds, time.Microsecond) / rttCalls

	// transport: one-way stream of batch-sized messages from rank 1, timed
	// where they arrive (a DKV read's response lands there too) — the raw
	// rate the DKV read bandwidth is held against.
	rowBytes := store.RowBytes(k)
	payload := make([]byte, batchRows*rowBytes)
	err = pair(func() error {
		var err error
		ds, err = rounds(func() error {
			for i := 0; i < streamMsgs; i++ {
				if _, err := conns[0].Recv(1, probeTagData); err != nil {
					return err
				}
			}
			return nil
		})
		return err
	}, func() error {
		for i := 0; i < probeRounds*streamMsgs; i++ {
			if err := conns[1].Send(0, probeTagData, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("transport stream: %w", err)
	}
	mp.StreamMBps = perSecond(ds, streamMsgs*len(payload)) / 1e6

	// dkv: both ranks open a store over the same mesh; rank 0 reads and
	// writes keys rank 1 owns.
	stores := make([]*dkv.Store, distRanks)
	for r := range stores {
		stores[r], err = dkv.New(conns[r], n, rowBytes)
		if err != nil {
			return nil, fmt.Errorf("dkv store rank %d: %w", r, err)
		}
		defer stores[r].Close()
	}
	lo, hi := stores[1].OwnedRange()
	rng := mathx.NewRNG(uint64(n))
	keys := make([]int32, batchRows)
	for i := range keys {
		keys[i] = int32(lo + rng.Intn(hi-lo))
	}
	buf := make([]byte, batchRows*rowBytes)
	rtt := func(keys []int32, call func([]int32, []byte) error) (float64, error) {
		ds, err := rounds(func() error {
			for i := 0; i < rttCalls; i++ {
				if err := call(keys, buf[:len(keys)*rowBytes]); err != nil {
					return err
				}
			}
			return nil
		})
		return medianOf(ds, time.Microsecond) / rttCalls, err
	}
	if mp.Read1US, err = rtt(keys[:1], stores[0].ReadBatch); err != nil {
		return nil, fmt.Errorf("dkv 1-row read: %w", err)
	}
	if mp.Read512US, err = rtt(keys, stores[0].ReadBatch); err != nil {
		return nil, fmt.Errorf("dkv %d-row read: %w", batchRows, err)
	}
	if mp.Write512US, err = rtt(keys, stores[0].WriteBatch); err != nil {
		return nil, fmt.Errorf("dkv %d-row write: %w", batchRows, err)
	}
	mp.ReadMBps = float64(len(buf)) / mp.Read512US // bytes per µs = MB/s

	// cluster: the four collectives the engine's stages are built from.
	comms := []*cluster.Comm{cluster.New(conns[0]), cluster.New(conns[1])}
	collective := func(op func(c *cluster.Comm) error) (float64, error) {
		var ds []time.Duration
		err := pair(func() error {
			var err error
			ds, err = rounds(func() error {
				for i := 0; i < rttCalls; i++ {
					if err := op(comms[0]); err != nil {
						return err
					}
				}
				return nil
			})
			return err
		}, func() error {
			for i := 0; i < total; i++ {
				if err := op(comms[1]); err != nil {
					return err
				}
			}
			return nil
		})
		return medianOf(ds, time.Microsecond) / rttCalls, err
	}
	if mp.BarrierUS, err = collective((*cluster.Comm).Barrier); err != nil {
		return nil, fmt.Errorf("cluster barrier: %w", err)
	}
	vec := make([]float64, 2*k)
	if mp.AllReduceUS, err = collective(func(c *cluster.Comm) error {
		_, err := c.AllReduceSum(vec)
		return err
	}); err != nil {
		return nil, fmt.Errorf("cluster allreduce: %w", err)
	}
	parts := [][]byte{make([]byte, scatterBytes), make([]byte, scatterBytes)}
	if mp.ScatterUS, err = collective(func(c *cluster.Comm) error {
		var p [][]byte
		if c.Rank() == 0 {
			p = parts
		}
		_, err := c.Scatter(0, p)
		return err
	}); err != nil {
		return nil, fmt.Errorf("cluster scatter: %w", err)
	}
	part := make([]byte, gatherBytes)
	if mp.GatherUS, err = collective(func(c *cluster.Comm) error {
		_, err := c.AllGather(part)
		return err
	}); err != nil {
		return nil, fmt.Errorf("cluster allgather: %w", err)
	}
	return mp, nil
}

// netModel turns the two raw transport probes into the simnet link model
// perfmodel's distributed estimate runs on.
func (mp *meshProbes) netModel() simnet.Model {
	return simnet.Model{
		LatencySec:           mp.PingPongUS / 2 * 1e-6,
		BandwidthBytesPerSec: mp.StreamMBps * 1e6,
		ScatterFactor:        1,
	}
}

// probeServe measures the query engine directly (no HTTP) on the live
// snapshot, the index build idle, and the snapshot seal copy.
func probeServe(r results, li *localInst) error {
	eng, n, k := li.sv.eng, li.in.Train.NumVertices(), li.in.Cfg.K
	const calls = 20000
	rng := mathx.NewRNG(uint64(n))
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	engineNS := func(name string, call func() error) {
		ds, _ := rounds(func() error {
			for i := 0; i < calls; i++ {
				keep(call())
			}
			return nil
		})
		r.set(name, medianOf(ds, time.Nanosecond)/calls, probeRounds)
	}
	engineNS("serve.topk_ns", func() error { _, _, err := eng.TopK(rng.Intn(n), 10); return err })
	engineNS("serve.shared_ns", func() error { _, _, err := eng.SharedCommunity(rng.Intn(n), rng.Intn(n)); return err })
	engineNS("serve.members_ns", func() error { _, _, err := eng.Members(rng.Intn(k), 100); return err })
	if firstErr != nil {
		return fmt.Errorf("serve engine probe: %w", firstErr)
	}

	snap := eng.Snapshot()
	ds, _ := rounds(func() error { serve.BuildIndex(snap, 0); return nil })
	r.set("serve.index_build_ms", medianOf(ds, time.Millisecond), probeRounds)

	local := store.NewLocal(li.s.State.Pi, li.s.State.PhiSum, k, 1)
	ds, err := rounds(func() error {
		_, err := local.Snapshot(snap.Version, li.s.State.Beta)
		return err
	})
	if err != nil {
		return fmt.Errorf("snapshot seal probe: %w", err)
	}
	r.set("store.snapshot_seal_ms", medianOf(ds, time.Millisecond), probeRounds)
	return nil
}
