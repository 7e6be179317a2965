package gen

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Preset describes a synthetic stand-in for one of the SNAP datasets of the
// paper's Table II. PaperVertices/PaperEdges/PaperCommunities are the
// original dataset statistics; N/Edges/Communities are the scaled values the
// generator targets. The scale factor keeps the mean degree (and therefore
// the sampler's per-vertex work profile) of the original.
type Preset struct {
	Name             string
	Description      string
	PaperVertices    int
	PaperEdges       int64
	PaperCommunities int
	Scale            int // divisor applied to the vertex count
	N                int
	Edges            int
	Communities      int
	Seed             uint64
}

// Presets returns the six Table II stand-ins, ordered as in the paper. Each
// preserves the original mean degree; vertex counts are scaled so the whole
// suite trains on one machine.
func Presets() []Preset {
	specs := []struct {
		name, desc string
		v          int
		e          int64
		c          int
		scale      int
	}{
		{"com-livejournal-sim", "Online blogging social network", 3997962, 34681189, 287512, 100},
		{"com-friendster-sim", "Online gaming social network", 65608366, 1806067135, 957154, 1000},
		{"com-orkut-sim", "Online social network", 3072441, 117185083, 6288363, 100},
		{"com-youtube-sim", "Video-sharing social network", 1134890, 2987624, 8385, 100},
		{"com-dblp-sim", "CS bibliography collaboration network", 317080, 1049866, 13477, 10},
		{"com-amazon-sim", "Product co-purchasing network", 334863, 925872, 75149, 10},
	}
	out := make([]Preset, len(specs))
	for i, s := range specs {
		n := s.v / s.scale
		e := int(s.e / int64(s.scale))
		c := s.c / s.scale
		if c < 8 {
			c = 8
		}
		// Bound the community count: with more communities than N/4 the
		// planted blocks are too small to carry edges at the scaled size.
		if c > n/4 {
			c = n / 4
		}
		// Capacity bound: c communities of mean size 1.3·N/c offer about
		// 1.69·N²/(2c) intra pairs; keep at least twice the edge budget so
		// the per-community link probabilities stay well below saturation.
		if cap := (42 * n * n / 100) / e; c > cap && cap >= 8 {
			c = cap
		}
		out[i] = Preset{
			Name:             s.name,
			Description:      s.desc,
			PaperVertices:    s.v,
			PaperEdges:       s.e,
			PaperCommunities: s.c,
			Scale:            s.scale,
			N:                n,
			Edges:            e,
			Communities:      c,
			Seed:             uint64(9000 + i),
		}
	}
	return out
}

// PresetByName finds a preset by its name.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range Presets() {
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return Preset{}, fmt.Errorf("gen: unknown preset %q (have %v)", name, names)
}

// Generate materialises the preset's graph and ground truth.
func (p Preset) Generate() (*graph.Graph, *GroundTruth, error) {
	cfg := DefaultPlanted(p.N, p.Communities, p.Edges, p.Seed)
	return Planted(cfg)
}
