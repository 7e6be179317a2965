package metrics

import (
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
)

func cover(n int, members ...[]int32) *Cover {
	return NewCover(n, members)
}

func TestNewCoverCleansInput(t *testing.T) {
	c := NewCover(10, [][]int32{{3, 1, 3, 2}, {}, {5}})
	if len(c.Members) != 2 {
		t.Fatalf("communities = %d, want 2 (empty dropped)", len(c.Members))
	}
	want := []int32{1, 2, 3}
	for i, v := range c.Members[0] {
		if v != want[i] {
			t.Fatalf("members[0] = %v, want %v", c.Members[0], want)
		}
	}
}

func TestF1Identical(t *testing.T) {
	c := cover(10, []int32{0, 1, 2}, []int32{3, 4, 5, 6}, []int32{7, 8, 9})
	if s := F1Score(c, c); math.Abs(s-1) > 1e-12 {
		t.Fatalf("F1(self) = %v, want 1", s)
	}
}

func TestF1Disjoint(t *testing.T) {
	a := cover(10, []int32{0, 1, 2})
	b := cover(10, []int32{7, 8, 9})
	if s := F1Score(a, b); s != 0 {
		t.Fatalf("F1(disjoint) = %v, want 0", s)
	}
}

func TestF1Partial(t *testing.T) {
	a := cover(10, []int32{0, 1, 2, 3})
	b := cover(10, []int32{0, 1, 2, 3, 4, 5, 6, 7})
	// precision 1, recall 0.5 → F1 = 2/3 both directions.
	if s := F1Score(a, b); math.Abs(s-2.0/3.0) > 1e-12 {
		t.Fatalf("F1 = %v, want 2/3", s)
	}
}

func TestF1EmptyCover(t *testing.T) {
	a := cover(10, []int32{0, 1})
	empty := NewCover(10, nil)
	if F1Score(a, empty) != 0 || F1Score(empty, a) != 0 {
		t.Fatal("F1 with empty cover should be 0")
	}
}

func TestF1SplitCommunities(t *testing.T) {
	// Truth has one big community; detection split it in half. The split
	// must score strictly between 0 and 1.
	truth := cover(8, []int32{0, 1, 2, 3, 4, 5, 6, 7})
	split := cover(8, []int32{0, 1, 2, 3}, []int32{4, 5, 6, 7})
	s := F1Score(split, truth)
	if s <= 0.3 || s >= 0.9 {
		t.Fatalf("split F1 = %v, want in (0.3, 0.9)", s)
	}
}

func TestNMIIdentical(t *testing.T) {
	c := cover(20, []int32{0, 1, 2, 3, 4}, []int32{5, 6, 7, 8, 9, 10}, []int32{11, 12, 13, 14, 15, 16, 17, 18, 19})
	if s := NMI(c, c); math.Abs(s-1) > 1e-9 {
		t.Fatalf("NMI(self) = %v, want 1", s)
	}
}

func TestNMISymmetric(t *testing.T) {
	a := cover(30, []int32{0, 1, 2, 3, 4, 5}, []int32{6, 7, 8, 9, 10, 11, 12})
	b := cover(30, []int32{0, 1, 2, 3}, []int32{6, 7, 8, 9, 13, 14})
	if d := math.Abs(NMI(a, b) - NMI(b, a)); d > 1e-12 {
		t.Fatalf("NMI not symmetric, diff %v", d)
	}
}

func TestNMIRandomLow(t *testing.T) {
	rng := mathx.NewRNG(5)
	n := 200
	randomCover := func() *Cover {
		members := make([][]int32, 8)
		for v := 0; v < n; v++ {
			members[rng.Intn(8)] = append(members[rng.Intn(8)], int32(v))
		}
		return NewCover(n, members)
	}
	a, b := randomCover(), randomCover()
	good := NMI(a, a)
	indep := NMI(a, b)
	if indep >= good/2 {
		t.Fatalf("independent covers NMI %v not far below self NMI %v", indep, good)
	}
}

func TestNMIBetterDetectionScoresHigher(t *testing.T) {
	truth := cover(40,
		[]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		[]int32{10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
		[]int32{20, 21, 22, 23, 24, 25, 26, 27, 28, 29},
		[]int32{30, 31, 32, 33, 34, 35, 36, 37, 38, 39})
	nearPerfect := cover(40,
		[]int32{0, 1, 2, 3, 4, 5, 6, 7, 8}, // one vertex dropped
		[]int32{10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
		[]int32{20, 21, 22, 23, 24, 25, 26, 27, 28, 29},
		[]int32{30, 31, 32, 33, 34, 35, 36, 37, 38, 39})
	coarse := cover(40,
		[]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
		[]int32{20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39})
	sNear := NMI(nearPerfect, truth)
	sCoarse := NMI(coarse, truth)
	if sNear <= sCoarse {
		t.Fatalf("near-perfect NMI %v not above coarse NMI %v", sNear, sCoarse)
	}
	if sNear < 0.8 {
		t.Fatalf("near-perfect NMI = %v, want high", sNear)
	}
}

func TestNMIPanicsOnMismatchedN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched N did not panic")
		}
	}()
	NMI(cover(10, []int32{1}), cover(20, []int32{1}))
}

func TestFromState(t *testing.T) {
	cfg := core.DefaultConfig(4, 3)
	s, err := core.NewState(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Force known memberships: vertex a dominated by community a % 4.
	for a := 0; a < 6; a++ {
		phi := []float64{0.01, 0.01, 0.01, 0.01}
		phi[a%4] = 1
		s.SetPhiRow(a, phi)
	}
	c := FromState(s, 0.5)
	if len(c.Members) != 4 {
		t.Fatalf("communities = %d, want 4", len(c.Members))
	}
	for k, m := range c.Members {
		for _, v := range m {
			if int(v)%4 != k {
				t.Fatalf("vertex %d assigned to community %d", v, k)
			}
		}
	}
}

// TestEndToEndRecovery is the headline quality test: train the sampler on a
// planted graph and verify it recovers the planted communities far above
// chance.
func TestEndToEndRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("training too slow for -short")
	}
	const n, k = 300, 4
	g, gt, err := gen.Planted(gen.PlantedConfig{
		N: n, NumCommunities: k, MeanMembership: 1.15,
		SizeSkew: 0.3, TargetEdges: 3500, Background: 0.02, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(k, 17)
	cfg.Alpha = 1.0 / float64(k)
	s, err := core.NewSampler(cfg, g, nil, core.SamplerOptions{Threads: 4, NeighborCount: 30})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(600)

	truth := NewCover(n, gt.Members)
	detected := FromState(s.State, 0)
	got := F1Score(detected, truth)

	// Chance baseline: score a shuffled version of the truth.
	rng := mathx.NewRNG(1)
	shuffled := make([][]int32, len(gt.Members))
	perm := make([]int, n)
	rng.Perm(perm)
	for i, m := range gt.Members {
		sh := make([]int32, len(m))
		for j, v := range m {
			sh[j] = int32(perm[v])
		}
		shuffled[i] = sh
	}
	chance := F1Score(NewCover(n, shuffled), truth)

	if got < chance+0.15 {
		t.Fatalf("recovery F1 = %.3f, chance = %.3f; model failed to learn structure", got, chance)
	}
}

func TestConvergenceDetector(t *testing.T) {
	d := NewConvergenceDetector(6, 0.01)
	// Steeply decreasing: never converged.
	for i := 0; i < 6; i++ {
		if d.Add(100 - 10*float64(i)) {
			t.Fatal("converged while steeply decreasing")
		}
	}
	// Flat: converges once the window fills with stable values.
	d2 := NewConvergenceDetector(6, 0.01)
	converged := false
	for i := 0; i < 10; i++ {
		converged = d2.Add(50.0)
	}
	if !converged {
		t.Fatal("flat series did not converge")
	}
}

func TestConvergenceDetectorMinWindow(t *testing.T) {
	d := NewConvergenceDetector(0, 0.1)
	d.Add(1)
	if !d.Add(1) {
		t.Fatal("window floor of 2 not applied")
	}
}

func TestLinkAUCPerfectAndChance(t *testing.T) {
	cfg := core.DefaultConfig(2, 1)
	s, err := core.NewState(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Vertices 0,1 in community 0; vertices 2,3 in community 1.
	s.SetPhiRow(0, []float64{10, 0.01})
	s.SetPhiRow(1, []float64{10, 0.01})
	s.SetPhiRow(2, []float64{0.01, 10})
	s.SetPhiRow(3, []float64{0.01, 10})
	s.Theta[0], s.Theta[1] = 1, 9 // β_0 = 0.9
	s.Theta[2], s.Theta[3] = 1, 9
	s.RefreshBeta()

	// Links inside communities, non-links across: perfectly separable.
	pairs := [][2]int32{{0, 1}, {2, 3}, {0, 2}, {1, 3}}
	linked := []bool{true, true, false, false}
	if auc := LinkAUC(s, pairs, linked, cfg.Delta); auc != 1 {
		t.Fatalf("separable AUC = %v, want 1", auc)
	}
	// Inverted labels: AUC 0.
	inverted := []bool{false, false, true, true}
	if auc := LinkAUC(s, pairs, inverted, cfg.Delta); auc != 0 {
		t.Fatalf("inverted AUC = %v, want 0", auc)
	}
	// Degenerate label sets score 0.5.
	if auc := LinkAUC(s, pairs, []bool{true, true, true, true}, cfg.Delta); auc != 0.5 {
		t.Fatalf("all-positive AUC = %v, want 0.5", auc)
	}
}

func TestLinkAUCTiesGiveHalfCredit(t *testing.T) {
	cfg := core.DefaultConfig(2, 2)
	s, err := core.NewState(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Same pair used as one positive and one negative: identical scores,
	// midranks give AUC exactly 0.5.
	pairs := [][2]int32{{0, 1}, {0, 1}}
	linked := []bool{true, false}
	if auc := LinkAUC(s, pairs, linked, cfg.Delta); auc != 0.5 {
		t.Fatalf("tied AUC = %v, want 0.5", auc)
	}
}

func TestLinkAUCOnTrainedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training too slow for -short")
	}
	g, _, err := gen.Planted(gen.PlantedConfig{
		N: 400, NumCommunities: 4, MeanMembership: 1.15,
		SizeSkew: 0.3, TargetEdges: 4000, Background: 0.02, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, held, err := graphSplitHelper(g, 56)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(4, 57)
	cfg.Alpha = 0.25
	cfg.StepA = 0.05
	cfg.StepB = 4096
	s, err := core.NewSampler(cfg, train, held, core.SamplerOptions{Threads: 0, MinibatchPairs: 128})
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][2]int32, held.Len())
	for i, e := range held.Pairs {
		pairs[i] = [2]int32{e.A, e.B}
	}
	before := LinkAUC(s.State, pairs, held.Linked, cfg.Delta)
	s.Run(2500)
	after := LinkAUC(s.State, pairs, held.Linked, cfg.Delta)
	if after < 0.72 {
		t.Fatalf("trained AUC = %.3f (was %.3f), want strong link prediction", after, before)
	}
	if after <= before {
		t.Fatalf("training did not improve AUC: %.3f -> %.3f", before, after)
	}
}

func graphSplitHelper(g *graph.Graph, seed uint64) (*graph.Graph, *graph.HeldOut, error) {
	return graph.Split(g, g.NumEdges()/20, mathx.NewRNG(seed))
}

// identityIDs is the id map of a graph whose file ids are dense already.
func identityIDs(n int) []int64 {
	ids := make([]int64, n)
	for v := range ids {
		ids[v] = int64(v)
	}
	return ids
}

// TestCoverIORoundTrip: a cover written through an id map reads back through
// the same map to the same dense cover, and the file carries the mapped ids.
func TestCoverIORoundTrip(t *testing.T) {
	c := NewCover(100, [][]int32{{5, 1, 9}, {42, 7}, {99}})
	ids := make([]int64, 100)
	for v := range ids {
		ids[v] = int64(1<<40 - 3*v) // sparse, descending, past int32
	}
	var buf strings.Builder
	if err := WriteCover(&buf, c, ids); err != nil {
		t.Fatal(err)
	}
	if first := strings.Fields(buf.String())[0]; first != strconv.FormatInt(ids[1], 10) {
		t.Fatalf("first written id %s, want file id %d of dense vertex 1", first, ids[1])
	}
	got, err := ReadCover(strings.NewReader(buf.String()), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Members) != len(c.Members) {
		t.Fatalf("communities = %d, want %d", len(got.Members), len(c.Members))
	}
	if F1Score(got, c) != 1 {
		t.Fatal("round trip not identical")
	}
}

func TestReadCoverRejectsBadInput(t *testing.T) {
	ids := identityIDs(10)
	if _, err := ReadCover(strings.NewReader("1 2 zzz\n"), ids); err == nil {
		t.Fatal("non-numeric id accepted")
	}
	if _, err := ReadCover(strings.NewReader("1 2 50\n"), ids); err == nil {
		t.Fatal("id outside the graph accepted")
	}
	c, err := ReadCover(strings.NewReader("# comment\n\n1 2\n"), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Members) != 1 {
		t.Fatalf("communities = %d, want 1", len(c.Members))
	}
}

func TestCoverFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cover.txt")
	c := NewCover(20, [][]int32{{1, 2, 3}, {10, 11}})
	if err := WriteCoverFile(path, c, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCoverFile(path, identityIDs(20))
	if err != nil {
		t.Fatal(err)
	}
	if NMI(got, c) != 1 {
		t.Fatal("file round trip lost information")
	}
}
