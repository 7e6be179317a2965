package main

import (
	"bytes"
	"encoding/json"
)

// workloadWhy is BENCHMARK.json's one line per workload: why it was chosen.
var workloadWhy = map[string]string{
	wSeq:     "single-node sampler on g20k (pi 5 MB, in cache): the update_phi kernel and local row copies are ~97% of an iteration, dkv/cluster/transport idle, so a kernel gain shows and a comms gain must not",
	wDist:    "same graph and arithmetic on 2 ranks over TCP loopback, pipeline on, cache off: pi loads cross store, dkv and transport (14 ms load vs 5.6 ms compute), so framing, allocation and collectives show",
	wDistHot: "dist_tcp plus the 4096-row cross-iteration LRU hot-row cache: fewer and smaller requests, write-set invalidation at every barrier; slower than dist_tcp today, so a cache fix must show here only",
	wMmap:    "g200k (pi 53 MB, the size of L3), TieredStore over MmapStore, 5 Seals: store reads are ~80% of an iteration and copy-on-write plus fsync run beside them, so a read gain that costs writes or RSS shows",
	wServe:   "1-thread trainer on g100k publishing every 20 iterations while an open loop sends 2000 HTTP queries/s to serve.Server: snapshot seal, index build and flip block the trainer and contend with the reads",
}

// contractJSON renders BENCHMARK.json from the tables of this package, the
// single place names, units, directions and bounds are written down.
func contractJSON() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []gated    `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: refSeconds,
	}
	for _, w := range workloadNames {
		doc.Workloads = append(doc.Workloads, workload{w, workloadWhy[w]})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, gated{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
