package dist

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/sampling"
	"repro/internal/store"
	"repro/internal/wire"
)

func fixture(t testing.TB, n, k, edges int, seed uint64) (*graph.Graph, *graph.HeldOut) {
	t.Helper()
	g, _, err := gen.Planted(gen.DefaultPlanted(n, k, edges, seed))
	if err != nil {
		t.Fatal(err)
	}
	train, held, err := graph.Split(g, g.NumEdges()/10, mathx.NewRNG(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return train, held
}

func TestRemoteFractionScalesWithRanks(t *testing.T) {
	train, held := fixture(t, 400, 4, 2000, 56)
	cfg := core.DefaultConfig(4, 5)
	for _, ranks := range []int{2, 4} {
		res, err := Run(cfg, train, held, Options{Ranks: ranks, Iterations: 10})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(ranks-1) / float64(ranks)
		if math.Abs(res.RemoteFrac-want) > 0.12 {
			t.Fatalf("ranks=%d: remote fraction %.3f, want ≈%.3f", ranks, res.RemoteFrac, want)
		}
	}
}

func TestResultCarriesPhases(t *testing.T) {
	train, held := fixture(t, 150, 4, 700, 57)
	cfg := core.DefaultConfig(4, 6)
	res, err := Run(cfg, train, held, Options{Ranks: 2, Iterations: 5, EvalEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{engine.PhaseDeployMinibatch, engine.PhaseUpdatePhi, engine.PhaseUpdatePi, engine.PhaseUpdateBetaTheta, engine.PhasePerplexity, engine.PhaseTotal} {
		if res.Phases.Total(phase) == 0 {
			t.Errorf("phase %q has no recorded time", phase)
		}
	}
	if len(res.RankPhases) != 2 {
		t.Fatalf("rank phases = %d, want 2", len(res.RankPhases))
	}
	if res.DKV.RemoteKeys == 0 {
		t.Error("no remote DKV traffic recorded with 2 ranks")
	}
	if err := res.State.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	train, held := fixture(t, 100, 4, 500, 58)
	cfg := core.DefaultConfig(4, 7)
	if _, err := Run(cfg, train, held, Options{Ranks: 2}); err == nil {
		t.Fatal("zero iterations accepted")
	}
	if _, err := Run(cfg, train, nil, Options{Ranks: 2, Iterations: 1, EvalEvery: 1}); err == nil {
		t.Fatal("EvalEvery without held-out accepted")
	}
	bad := cfg
	bad.K = 0
	if _, err := Run(bad, train, held, Options{Ranks: 2, Iterations: 1}); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Partitions must be one store per rank, each its dkv.Range's rows × K.
	n := train.NumVertices()
	part := func(rows, k int) store.PiStore {
		return store.NewLocal(make([]float32, rows*k), make([]float64, rows), k, 1)
	}
	for name, parts := range map[string][]store.PiStore{
		"one for two ranks": {part(n, 4)},
		"wrong rows":        {part(n/2, 4), part(n/2+1, 4)},
		"wrong K":           {part(n/2, 4), part(n-n/2, 3)},
	} {
		var pe *PartitionError
		if _, err := Run(cfg, train, held, Options{Ranks: 2, Iterations: 1, Partitions: parts}); !errors.As(err, &pe) {
			t.Errorf("%s: err = %v, want a *PartitionError", name, err)
		}
	}
}

func TestDeploymentRoundTrip(t *testing.T) {
	d := &deployment{
		iter:    42,
		nodes:   []int32{5, 9},
		adj:     [][]int32{{1, 2, 3}, {}},
		pairs:   []graph.Edge{{A: 1, B: 2}, {A: 3, B: 9}},
		link:    []bool{true, false},
		scale:   123.456,
		chunkLo: 7,
	}
	got, err := decodeDeployment(encodeDeployment(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.iter != 42 || got.scale != 123.456 || got.chunkLo != 7 {
		t.Fatalf("header fields wrong: %+v", got)
	}
	if len(got.nodes) != 2 || got.nodes[1] != 9 {
		t.Fatalf("nodes wrong: %v", got.nodes)
	}
	if len(got.adj[0]) != 3 || got.adj[0][2] != 3 || len(got.adj[1]) != 0 {
		t.Fatalf("adjacency wrong: %v", got.adj)
	}
	if got.pairs[1] != (graph.Edge{A: 3, B: 9}) || got.link[0] != true || got.link[1] != false {
		t.Fatalf("pairs wrong: %v %v", got.pairs, got.link)
	}
}

// TestWorkerViewMatchesGraphView checks that a worker's scattered adjacency
// answers the strategies' link test (sampling.Linked over the vertex's own
// row) exactly as the master's edge hash (graph.HasEdge) does.
func TestWorkerViewMatchesGraphView(t *testing.T) {
	g, _, err := gen.Planted(gen.DefaultPlanted(100, 4, 400, 60))
	if err != nil {
		t.Fatal(err)
	}
	// Deploy all vertices.
	d := &deployment{nodes: make([]int32, 100), adj: make([][]int32, 100)}
	for a := 0; a < 100; a++ {
		d.nodes[a] = int32(a)
		d.adj[a] = g.Neighbors(a)
	}
	wv := newWorkerView(100, nil, nil)
	wv.load(d)
	for a := int32(0); a < 100; a++ {
		adj := wv.Neighbors(a)
		if len(adj) != g.Degree(int(a)) {
			t.Fatalf("degree(%d) mismatch", a)
		}
		for b := int32(0); b < 100; b++ {
			if sampling.Linked(adj, b) != g.HasEdge(int(a), int(b)) {
				t.Fatalf("Linked(%d,%d) disagrees with graph.HasEdge", a, b)
			}
		}
	}
}

func TestDeploymentRoundTripQuick(t *testing.T) {
	rng := mathx.NewRNG(123)
	for trial := 0; trial < 200; trial++ {
		nNodes := rng.Intn(20)
		d := &deployment{
			iter:    rng.Intn(1 << 20),
			nodes:   make([]int32, nNodes),
			adj:     make([][]int32, nNodes),
			scale:   rng.Float64() * 1e6,
			chunkLo: rng.Intn(1000),
		}
		for i := 0; i < nNodes; i++ {
			d.nodes[i] = int32(rng.Intn(1 << 20))
			adj := make([]int32, rng.Intn(8))
			for j := range adj {
				adj[j] = int32(rng.Intn(1 << 20))
			}
			d.adj[i] = adj
		}
		nPairs := rng.Intn(30)
		d.pairs = make([]graph.Edge, nPairs)
		d.link = make([]bool, nPairs)
		for i := 0; i < nPairs; i++ {
			d.pairs[i] = graph.Edge{A: int32(rng.Intn(1 << 20)), B: int32(rng.Intn(1 << 20))}
			d.link[i] = rng.Float64() < 0.5
		}

		got, err := decodeDeployment(encodeDeployment(d))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.iter != d.iter || got.scale != d.scale || got.chunkLo != d.chunkLo {
			t.Fatalf("trial %d: header mismatch", trial)
		}
		if len(got.nodes) != nNodes || len(got.pairs) != nPairs {
			t.Fatalf("trial %d: length mismatch", trial)
		}
		for i := range d.nodes {
			if got.nodes[i] != d.nodes[i] || len(got.adj[i]) != len(d.adj[i]) {
				t.Fatalf("trial %d: node %d mismatch", trial, i)
			}
			for j := range d.adj[i] {
				if got.adj[i][j] != d.adj[i][j] {
					t.Fatalf("trial %d: adjacency corrupted", trial)
				}
			}
		}
		for i := range d.pairs {
			if got.pairs[i] != d.pairs[i] || got.link[i] != d.link[i] {
				t.Fatalf("trial %d: pair %d mismatch", trial, i)
			}
		}
	}
}

// TestDecodeDeploymentRejectsShortBuffer: a frame cut short or carrying a
// count its bytes cannot back is a *DeploymentError naming the field, never
// a panic or an allocation on the sender's say-so. The first two frames
// used to panic with an index out of range.
func TestDecodeDeploymentRejectsShortBuffer(t *testing.T) {
	valid := encodeDeployment(&deployment{
		iter: 3, nodes: []int32{5}, adj: [][]int32{{1, 2}},
		pairs: []graph.Edge{{A: 1, B: 5}}, link: []bool{true}, scale: 2, chunkLo: 1,
	})
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = wire.AppendUint32(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		field string
	}{
		{"one node, no bytes for it", []byte{0, 0, 0, 0, 1, 0, 0, 0}, "node count"},
		{"no pair count", make([]byte, 8), "pair count"},
		{"empty", nil, "iteration"},
		{"three bytes", []byte{1, 2, 3}, "iteration"},
		{"huge node count", u32(0, math.MaxUint32), "node count"},
		{"huge degree", u32(0, 1, 7, math.MaxUint32), "adjacency"},
		{"huge pair count", u32(0, 0, math.MaxUint32), "pair count"},
		{"no scale", u32(0, 0, 0), "scale"},
		{"cut before the chunk offset", valid[:len(valid)-1], "chunk offset"},
		{"trailing byte", append(append([]byte(nil), valid...), 0), "trailing bytes"},
	} {
		d, err := decodeDeployment(tc.frame)
		var de *DeploymentError
		if !errors.As(err, &de) || de.Field != tc.field || de.Len != len(tc.frame) {
			t.Errorf("%s: decode = %+v, %v; want a *DeploymentError at the %s", tc.name, d, err, tc.field)
		}
	}
	if _, err := decodeDeployment(valid); err != nil {
		t.Fatalf("the valid frame: %v", err)
	}
}

// FuzzDecodeDeployment feeds the deployment decoder arbitrary frames, seeded
// with one a 2-rank run scattered and its truncations. Every frame must
// either fail as a *DeploymentError or decode to a deployment that encodes
// back to a frame of the same length and decodes again unchanged — never
// panic, and never allocate in proportion to a count the bytes do not back.
func FuzzDecodeDeployment(f *testing.F) {
	frame, err := tapDeployment(f, func(b []byte) []byte { return b })
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut += 1 + len(frame)/16 {
		f.Add(frame[:cut])
	}
	f.Add(frame)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := decodeDeployment(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			var de *DeploymentError
			if !errors.As(err, &de) {
				t.Fatalf("untyped deployment error: %v", err)
			}
			return
		}
		again := encodeDeployment(d)
		if len(again) != len(data) {
			t.Fatalf("a decoded deployment re-encodes to %d bytes, read from %d", len(again), len(data))
		}
		d2, err := decodeDeployment(again)
		if err != nil {
			t.Fatalf("a re-encoded deployment does not decode: %v", err)
		}
		if !bytes.Equal(encodeDeployment(d2), again) {
			t.Fatal("a deployment does not survive a second round trip")
		}
	})
}
