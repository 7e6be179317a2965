package metrics

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Cover file format: one community per line, space-separated vertex ids —
// the same layout SNAP uses for its ground-truth community files, so
// detected covers can be compared with external tooling.

// WriteCover writes the cover to w, one community per line, in the input
// file's vertex ids: dense vertex v is written as ids[v], the map
// graph.ReadSNAP returns (nil writes v itself — a graph whose ids are dense
// already).
func WriteCover(w io.Writer, c *Cover, ids []int64) error {
	bw := bufio.NewWriter(w)
	for _, members := range c.Members {
		for i, v := range members {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			id := int64(v)
			if ids != nil {
				id = ids[v]
			}
			if _, err := bw.WriteString(strconv.FormatInt(id, 10)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCover parses a cover written in the input file's vertex ids back into
// the graph's dense ids: ids[v] is dense vertex v's file id (the map
// graph.ReadSNAP returns), and an id the graph does not contain is an error.
// Blank lines and '#' comments are skipped.
func ReadCover(r io.Reader, ids []int64) (*Cover, error) {
	dense := make(map[int64]int32, len(ids))
	for v, id := range ids {
		dense[id] = int32(v)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var members [][]int32
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		community := make([]int32, 0, len(fields))
		for _, f := range fields {
			id, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: line %d: %v", lineNo, err)
			}
			v, ok := dense[id]
			if !ok {
				return nil, fmt.Errorf("metrics: line %d: vertex %d is not in the graph", lineNo, id)
			}
			community = append(community, v)
		}
		members = append(members, community)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewCover(len(ids), members), nil
}

// WriteCoverFile writes the cover to path (see WriteCover for ids).
func WriteCoverFile(path string, c *Cover, ids []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCover(f, c, ids); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCoverFile reads a cover from path (see ReadCover for ids).
func ReadCoverFile(path string, ids []int64) (*Cover, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCover(f, ids)
}
