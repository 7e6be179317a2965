// Clustersim: run the full distributed engine — master-worker minibatch
// deployment, DKV-resident π, chunk-ordered θ reduction — on simulated
// clusters of increasing size, and print the per-phase breakdown that
// mirrors the paper's Figure 1 and Table III.
//
//	go run ./examples/clustersim
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
)

func main() {
	// A mid-sized planted graph; large enough that update_phi dominates.
	g, _, err := gen.Planted(gen.DefaultPlanted(6000, 24, 60000, 11))
	if err != nil {
		log.Fatal(err)
	}
	train, held, err := graph.Split(g, g.NumEdges()/20, mathx.NewRNG(12))
	if err != nil {
		log.Fatal(err)
	}
	const k, iters = 64, 80
	cfg := core.DefaultConfig(k, 13)
	cfg.Alpha = 1.0 / k

	fmt.Printf("strong scaling on a simulated cluster (N=%d, |E|=%d, K=%d, %d iterations)\n\n",
		train.NumVertices(), train.NumEdges(), k, iters)
	fmt.Printf("%6s %10s %12s %12s %12s %12s\n",
		"ranks", "total (s)", "update_phi", "update_pi", "update_beta", "remote frac")

	var base float64
	for _, ranks := range []int{1, 2, 4, 8} {
		res, err := dist.Run(cfg, train, held, dist.Options{
			Ranks: ranks, Threads: 2, Iterations: iters, Pipeline: true,
			MinibatchPairs: 1024, NeighborCount: 32,
		})
		if err != nil {
			log.Fatal(err)
		}
		total := res.Elapsed.Seconds()
		if ranks == 1 {
			base = total
		}
		fmt.Printf("%6d %10.2f %12.2f %12.2f %12.2f %11.0f%%   (speedup %.2fx)\n",
			ranks, total,
			res.Phases.Total(engine.PhaseUpdatePhi).Seconds(),
			res.Phases.Total(engine.PhaseUpdatePi).Seconds(),
			res.Phases.Total(engine.PhaseUpdateBetaTheta).Seconds(),
			100*res.RemoteFrac, base/total)
	}

	fmt.Println("\nnote: all ranks share this machine's cores, so wall-clock speedup is")
	fmt.Println("bounded by the physical core count; the remote fraction shows the DKV")
	fmt.Println("traffic growing as (C-1)/C exactly as in the paper's Section IV-C.")
}
