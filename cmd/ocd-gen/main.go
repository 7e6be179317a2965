// ocd-gen generates synthetic graphs with planted overlapping communities:
// either one of the Table II presets or a custom configuration. The graph is
// written in SNAP edge-list format; the ground-truth communities (one line
// per community, space-separated vertex ids) go to <out>.gt when requested.
//
// Usage:
//
//	ocd-gen -preset com-dblp-sim -out dblp.txt -groundtruth
//	ocd-gen -n 10000 -k 32 -edges 80000 -seed 7 -out custom.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func main() {
	var (
		preset     = flag.String("preset", "", "named Table II preset (see -list)")
		list       = flag.Bool("list", false, "list available presets and exit")
		n          = flag.Int("n", 10000, "vertices (custom mode)")
		k          = flag.Int("k", 32, "communities (custom mode)")
		edges      = flag.Int("edges", 80000, "target edges (custom mode)")
		membership = flag.Float64("membership", 1.3, "mean communities per vertex")
		background = flag.Float64("background", 0.05, "fraction of noise edges")
		degCorr    = flag.Bool("degree-corrected", false, "power-law degree targets (Chung-Lu within blocks)")
		seed       = flag.Uint64("seed", 42, "generator seed")
		out        = flag.String("out", "graph.txt", "output edge-list path")
		writeGT    = flag.Bool("groundtruth", false, "also write <out>.gt with the planted communities")
		streamOut  = flag.Bool("stream-out", false, "stream edges to -out without building the graph in memory (custom planted mode only)")
	)
	flag.Parse()

	if *list {
		fmt.Println("available presets (scaled stand-ins for the paper's Table II):")
		for _, p := range gen.Presets() {
			fmt.Printf("  %-24s N=%-8d E=%-9d communities=%-6d (%s)\n",
				p.Name, p.N, p.Edges, p.Communities, p.Description)
		}
		return
	}

	if *streamOut {
		if *preset != "" || *degCorr {
			fatal(fmt.Errorf("-stream-out supports only custom planted mode (no -preset, no -degree-corrected)"))
		}
		cfg := gen.DefaultPlanted(*n, *k, *edges, *seed)
		cfg.MeanMembership = *membership
		cfg.Background = *background
		streamGenerate(cfg, *out, *writeGT)
		return
	}

	var (
		g    *graph.Graph
		gt   *gen.GroundTruth
		name string
		err  error
	)
	if *preset != "" {
		var p gen.Preset
		p, err = gen.PresetByName(*preset)
		if err == nil {
			name = p.Name
			g, gt, err = p.Generate()
		}
	} else if *degCorr {
		name = fmt.Sprintf("degree-corrected planted n=%d k=%d", *n, *k)
		cfg := gen.DefaultDegreeCorrected(*n, *k, *edges, *seed)
		cfg.MeanMembership = *membership
		cfg.Background = *background
		g, gt, err = gen.DegreeCorrected(cfg)
	} else {
		name = fmt.Sprintf("planted n=%d k=%d", *n, *k)
		cfg := gen.DefaultPlanted(*n, *k, *edges, *seed)
		cfg.MeanMembership = *membership
		cfg.Background = *background
		g, gt, err = gen.Planted(cfg)
	}
	if err != nil {
		fatal(err)
	}

	if err := graph.WriteSNAPFile(*out, g, name); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d vertices, %d edges, mean degree %.1f\n",
		*out, g.NumVertices(), g.NumEdges(), g.MeanDegree())

	if *writeGT {
		path := *out + ".gt"
		cover := metrics.NewCover(g.NumVertices(), gt.Members)
		if err := metrics.WriteCoverFile(path, cover, nil); err != nil {
			fatal(err)
		}
		overlap, err := gt.OverlapFraction(g.NumVertices())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d communities (overlap fraction %.2f)\n",
			path, gt.NumCommunities(), overlap)
	}
}

// streamGenerate writes the planted graph edge-by-edge so peak memory is the
// dedup set, not the CSR — the producer side of -pi-backend mmap training.
func streamGenerate(cfg gen.PlantedConfig, out string, writeGT bool) {
	tmp := out + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fatal(err)
	}
	gt, edges, err := gen.PlantedStream(cfg, f)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	if err := os.Rename(tmp, out); err != nil {
		fatal(err)
	}
	fmt.Printf("streamed %s: %d vertices, %d edges\n", out, cfg.N, edges)

	if writeGT {
		path := out + ".gt"
		cover := metrics.NewCover(cfg.N, gt.Members)
		if err := metrics.WriteCoverFile(path, cover, nil); err != nil {
			fatal(err)
		}
		overlap, err := gt.OverlapFraction(cfg.N)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d communities (overlap fraction %.2f)\n",
			path, gt.NumCommunities(), overlap)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ocd-gen:", err)
	os.Exit(1)
}
