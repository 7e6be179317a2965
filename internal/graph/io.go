package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The SNAP collection distributes graphs as whitespace-separated edge lists
// with '#' comment lines and arbitrary (sparse, non-contiguous) vertex ids.
// ReadSNAP densifies the id space, because the model indexes π by vertex in
// [0, N).

// ReadSNAP parses a SNAP-format edge list. Vertex ids are remapped to a dense
// [0, N) range in order of first appearance; the mapping is returned so
// callers can translate results back to original ids.
func ReadSNAP(r io.Reader) (*Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ids := make(map[int64]int32)
	var origIDs []int64
	var edges []Edge
	lookup := func(raw int64) int32 {
		if v, ok := ids[raw]; ok {
			return v
		}
		v := int32(len(origIDs))
		ids[raw] = v
		origIDs = append(origIDs, raw)
		return v
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want two fields, got %q", lineNo, line)
		}
		a, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		b, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if a == b {
			continue // SNAP graphs occasionally carry self-loops; the model ignores them
		}
		edges = append(edges, Edge{lookup(a), lookup(b)})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	bld := NewBuilder(len(origIDs))
	for _, e := range edges {
		bld.AddEdge(int(e.A), int(e.B))
	}
	return bld.Finalize(), origIDs, nil
}

// ReadSNAPFile opens and parses path.
func ReadSNAPFile(path string) (*Graph, []int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadSNAP(f)
}

// WriteSNAP writes g as a SNAP-style edge list with a summary header.
func WriteSNAP(w io.Writer, g *Graph, name string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", name)
	fmt.Fprintf(bw, "# Nodes: %d Edges: %d\n", g.NumVertices(), g.NumEdges())
	var err error
	g.Edges(func(e Edge) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d\t%d\n", e.A, e.B)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSNAPFile writes g to path.
func WriteSNAPFile(path string, g *Graph, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSNAP(f, g, name); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
