package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/sampling"
	"repro/internal/store"
)

// phiOracle computes newPhi the way PhiStage.Run did before its neighbour
// draw ran on every worker: one goroutine, vertices in minibatch order, each
// π row read straight from the State. It is the reference the parallel draw
// is held to.
func phiOracle(cfg *Config, s *State, neigh sampling.NeighborStrategy, t int, eps float64, nodes []int32) []float64 {
	k := cfg.K
	out := make([]float64, len(nodes)*k)
	sc := NewPhiScratch(k)
	var rng mathx.RNG
	var ns sampling.NeighborSample
	for i, a := range nodes {
		rng.SeedStream(cfg.Seed, StreamVertex(t, int(a)))
		neigh.Sample(a, &rng, &ns)
		rows := make([][]float32, len(ns.Nodes))
		for j, b := range ns.Nodes {
			rows[j] = s.PiRow(int(b))
		}
		UpdatePhi(cfg, eps, s.PiRow(int(a)), s.PhiSum[a], rows, ns.Linked, ns.Scale, s.Beta, &rng, out[i*k:(i+1)*k], sc)
	}
	return out
}

// phiFixture is a freshly initialised state over a planted graph with its
// held-out pairs excluded, both neighbour strategies over that view, and a
// minibatch of distinct vertices.
func phiFixture(t *testing.T) (*Config, *State, []sampling.NeighborStrategy, []int32) {
	t.Helper()
	train, held := plantedFixture(t, 400, 6, 2400, 71)
	cfg := DefaultConfig(6, 9)
	s, err := NewState(cfg, train.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	excl := graph.NewEdgeSet(held.Len())
	for _, e := range held.Pairs {
		excl.Add(e)
	}
	view := sampling.NewGraphView(train, &excl)
	lpu, err := sampling.NewLinkPlusUniform(view, 16)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := sampling.NewUniformNeighbors(view, 16)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]int32, 0, 150)
	for a := 0; a < train.NumVertices() && len(nodes) < cap(nodes); a += 3 {
		nodes = append(nodes, int32(a))
	}
	return &cfg, s, []sampling.NeighborStrategy{lpu, uni}, nodes
}

// TestPhiStageParityAcrossThreads: the neighbour draw runs on Threads
// workers, and newPhi must be byte-identical to the serial oracle at every
// thread count, for both strategies, on both schedules.
func TestPhiStageParityAcrossThreads(t *testing.T) {
	cfg, s, strategies, nodes := phiFixture(t)
	const iter, eps = 3, 0.01
	for _, neigh := range strategies {
		want := phiOracle(cfg, s, neigh, iter, eps, nodes)
		for _, pipelined := range []bool{false, true} {
			for _, threads := range []int{1, 2, 3, 8} {
				ps := store.NewLocal(s.Pi, s.PhiSum, cfg.K, threads)
				stage := &PhiStage{Cfg: cfg, Store: ps, Neigh: neigh, Threads: threads, Pipelined: pipelined}
				if got, _ := stage.plan(len(nodes)); got != pipelined {
					t.Fatalf("plan pipelined = %v, want %v", got, pipelined)
				}
				got := make([]float64, len(want))
				// Twice: the second run reuses the stage's grown buffers.
				for run := 0; run < 2; run++ {
					if err := stage.Run(iter, eps, nodes, s.Beta, got); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s pipelined=%v threads=%d run %d: newPhi[%d] = %v, oracle %v",
								neigh.Name(), pipelined, threads, run, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// failingStore answers its first okReads batched reads, then fails every
// later one. PhiStage issues reads from one goroutine at a time, so the
// count needs no synchronisation.
type failingStore struct {
	store.PiStore
	okReads, reads int
}

var errInjectedRead = errors.New("injected read failure")

func (f *failingStore) ReadRows(ids []int32, dst *store.Rows) error {
	f.reads++
	if f.reads > f.okReads {
		return errInjectedRead
	}
	return f.PiStore.ReadRows(ids, dst)
}

// TestPhiStageStoreErrorReturns: a failed read comes back from Run as its
// error, on both schedules at one and three threads, without leaving the
// loader or the workers blocked. The serial schedule reads once, so its first
// read fails; the pipelined one fails mid-minibatch, on its second chunk.
func TestPhiStageStoreErrorReturns(t *testing.T) {
	cfg, s, strategies, nodes := phiFixture(t)
	for _, pipelined := range []bool{false, true} {
		for _, threads := range []int{1, 3} {
			name := fmt.Sprintf("pipelined=%v threads=%d", pipelined, threads)
			okReads := 0
			if pipelined {
				okReads = 1
			}
			stage := &PhiStage{
				Cfg:       cfg,
				Store:     &failingStore{PiStore: store.NewLocal(s.Pi, s.PhiSum, cfg.K, threads), okReads: okReads},
				Neigh:     strategies[0],
				Threads:   threads,
				Pipelined: pipelined,
			}
			done := make(chan error, 1)
			go func() { done <- stage.Run(1, 0.01, nodes, s.Beta, make([]float64, len(nodes)*cfg.K)) }()
			select {
			case err := <-done:
				if !errors.Is(err, errInjectedRead) {
					t.Fatalf("%s: Run returned %v, want the store's error", name, err)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("%s: Run did not return within 2 s of a store error", name)
			}
		}
	}
}
