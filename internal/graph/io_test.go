package graph

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

const snapSample = `# Undirected graph: toy
# Nodes: 4 Edges: 4
10	20
20	30
30 10
30	40
40	40
10	20
`

func TestReadSNAP(t *testing.T) {
	g, ids, err := ReadSNAP(strings.NewReader(snapSample))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("N = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("E = %d, want 4 (self-loop and duplicate dropped)", g.NumEdges())
	}
	// Dense ids assigned in order of first appearance: 10→0, 20→1, 30→2, 40→3.
	want := []int64{10, 20, 30, 40}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids[%d] = %d, want %d", i, ids[i], id)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges missing after id densification")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadSNAPBadInput(t *testing.T) {
	if _, _, err := ReadSNAP(strings.NewReader("1\n")); err == nil {
		t.Fatal("single-field line accepted")
	}
	if _, _, err := ReadSNAP(strings.NewReader("a b\n")); err == nil {
		t.Fatal("non-numeric line accepted")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {3, 4}, {0, 4}})
	var buf bytes.Buffer
	if err := WriteSNAP(&buf, g, "roundtrip"); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadSNAP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip edges = %d, want %d", g2.NumEdges(), g.NumEdges())
	}
	// Vertex count may shrink if isolated vertices exist; here all appear.
	if g2.NumVertices() != 5 {
		t.Fatalf("round trip vertices = %d, want 5", g2.NumVertices())
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := ring(20)
	if err := WriteSNAPFile(path, g, "ring20"); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadSNAPFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 20 || g2.NumVertices() != 20 {
		t.Fatalf("file round trip got N=%d E=%d", g2.NumVertices(), g2.NumEdges())
	}
}
