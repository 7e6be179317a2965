package gen

import (
	"math"
	"testing"
)

func TestPlantedBasicShape(t *testing.T) {
	cfg := DefaultPlanted(1000, 20, 5000, 1)
	g, gt, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1000 {
		t.Fatalf("N = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge count within 25% of target (binomial variation plus saturation).
	if e := g.NumEdges(); math.Abs(float64(e)-5000) > 1250 {
		t.Fatalf("edges = %d, want ≈5000", e)
	}
	if gt.NumCommunities() != 20 {
		t.Fatalf("communities = %d", gt.NumCommunities())
	}
	// Every vertex belongs to at least one community.
	seen := make([]bool, 1000)
	for _, m := range gt.Members {
		for _, v := range m {
			seen[v] = true
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d has no community", v)
		}
	}
}

func TestPlantedOverlap(t *testing.T) {
	cfg := DefaultPlanted(2000, 30, 10000, 2)
	cfg.MeanMembership = 1.5
	_, gt, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac, err := gt.OverlapFraction(2000)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.15 || frac > 0.75 {
		t.Fatalf("overlap fraction = %v, want meaningful overlap", frac)
	}
	// Membership sets agree with member lists.
	sets, err := gt.MembershipSets(2000)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	fromLists := 0
	for _, m := range gt.Members {
		fromLists += len(m)
	}
	if total != fromLists {
		t.Fatalf("membership sets carry %d entries, lists %d", total, fromLists)
	}
}

func TestPlantedCommunityStructureIsReal(t *testing.T) {
	// Intra-community edge density must far exceed background density;
	// otherwise the planted structure would be undetectable by any model.
	cfg := DefaultPlanted(1000, 10, 8000, 3)
	g, gt, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := gt.MembershipSets(g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	intra, cross := 0, 0
	// Count shared-community edges.
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(v) {
			if int32(v) >= w {
				continue
			}
			shared := false
			for c := range sets[v] {
				if sets[w][c] {
					shared = true
					break
				}
			}
			if shared {
				intra++
			} else {
				cross++
			}
		}
	}
	fracIntra := float64(intra) / float64(intra+cross)
	if fracIntra < 0.8 {
		t.Fatalf("only %.2f of edges are intra-community; structure too weak", fracIntra)
	}
}

func TestPlantedDeterminism(t *testing.T) {
	cfg := DefaultPlanted(500, 10, 2000, 7)
	g1, _, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := Planted(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	eq := true
	l1, l2 := g1.EdgeList(), g2.EdgeList()
	for i := range l1 {
		if l1[i] != l2[i] {
			eq = false
			break
		}
	}
	if !eq {
		t.Fatal("edge lists differ under identical seed")
	}
}

func TestPlantedValidation(t *testing.T) {
	bad := []PlantedConfig{
		{N: 1, NumCommunities: 1, MeanMembership: 1, TargetEdges: 1},
		{N: 10, NumCommunities: 0, MeanMembership: 1, TargetEdges: 1},
		{N: 10, NumCommunities: 2, MeanMembership: 0.5, TargetEdges: 1},
		{N: 10, NumCommunities: 2, MeanMembership: 1, TargetEdges: 0},
		{N: 10, NumCommunities: 2, MeanMembership: 1, TargetEdges: 5, Background: 2},
	}
	for i, cfg := range bad {
		if _, _, err := Planted(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestAMMSBSampler(t *testing.T) {
	cfg := AMMSBConfig{N: 200, K: 5, Alpha: 0.05, Eta0: 1, Eta1: 5, Delta: 1e-4, Seed: 11}
	s, err := AMMSB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph.NumVertices() != 200 {
		t.Fatalf("N = %d", s.Graph.NumVertices())
	}
	if err := s.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Latents have the right shapes and live on the simplex / unit interval.
	if len(s.Pi) != 200 || len(s.Beta) != 5 {
		t.Fatal("latent shapes wrong")
	}
	for _, b := range s.Beta {
		if b <= 0 || b >= 1 {
			t.Fatalf("beta out of (0,1): %v", b)
		}
	}
	for a, pi := range s.Pi {
		sum := 0.0
		for _, v := range pi {
			if v < 0 {
				t.Fatalf("pi[%d] has negative component", a)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("pi[%d] sums to %v", a, sum)
		}
	}
}

func TestAMMSBAssortativity(t *testing.T) {
	// With concentrated memberships (small alpha) and strong communities,
	// most edges should connect vertices whose dominant communities match.
	cfg := AMMSBConfig{N: 300, K: 4, Alpha: 0.05, Eta0: 1, Eta1: 10, Delta: 1e-4, Seed: 12}
	s, err := AMMSB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	argmax := func(x []float64) int {
		best := 0
		for i, v := range x {
			if v > x[best] {
				best = i
			}
		}
		return best
	}
	match, total := 0, 0
	for v := 0; v < s.Graph.NumVertices(); v++ {
		for _, w := range s.Graph.Neighbors(v) {
			if int32(v) >= w {
				continue
			}
			total++
			if argmax(s.Pi[v]) == argmax(s.Pi[w]) {
				match++
			}
		}
	}
	if total == 0 {
		t.Fatal("a-MMSB sample produced no edges")
	}
	if frac := float64(match) / float64(total); frac < 0.6 {
		t.Fatalf("only %.2f of edges are same-community; sampler not assortative", frac)
	}
}

func TestAMMSBValidation(t *testing.T) {
	bad := []AMMSBConfig{
		{N: 1, K: 1, Alpha: 1, Eta0: 1, Eta1: 1},
		{N: 10, K: 0, Alpha: 1, Eta0: 1, Eta1: 1},
		{N: 10, K: 2, Alpha: 0, Eta0: 1, Eta1: 1},
		{N: 10, K: 2, Alpha: 1, Eta0: 1, Eta1: 1, Delta: 2},
	}
	for i, cfg := range bad {
		if _, err := AMMSB(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

func TestPresetsTableII(t *testing.T) {
	ps := Presets()
	if len(ps) != 6 {
		t.Fatalf("presets = %d, want 6 (Table II rows)", len(ps))
	}
	for _, p := range ps {
		// Scaled mean degree matches the paper's dataset within rounding.
		paperDeg := 2 * float64(p.PaperEdges) / float64(p.PaperVertices)
		deg := 2 * float64(p.Edges) / float64(p.N)
		if math.Abs(deg-paperDeg) > 0.15*paperDeg {
			t.Errorf("%s: mean degree %v, paper %v", p.Name, deg, paperDeg)
		}
		if p.N < 100 || p.Communities < 8 {
			t.Errorf("%s: degenerate scaled size N=%d K=%d", p.Name, p.N, p.Communities)
		}
	}
}

func TestPresetByName(t *testing.T) {
	p, err := PresetByName("com-dblp-sim")
	if err != nil {
		t.Fatal(err)
	}
	if p.PaperVertices != 317080 {
		t.Fatalf("wrong preset returned: %+v", p)
	}
	if _, err := PresetByName("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestSmallPresetGenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("generation too slow for -short")
	}
	p, err := PresetByName("com-youtube-sim")
	if err != nil {
		t.Fatal(err)
	}
	g, gt, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != p.N {
		t.Fatalf("N = %d, want %d", g.NumVertices(), p.N)
	}
	if math.Abs(float64(g.NumEdges())-float64(p.Edges)) > 0.3*float64(p.Edges) {
		t.Fatalf("edges = %d, want ≈%d", g.NumEdges(), p.Edges)
	}
	if gt.NumCommunities() != p.Communities {
		t.Fatalf("communities = %d, want %d", gt.NumCommunities(), p.Communities)
	}
}
