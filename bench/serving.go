package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mathx"
	"repro/internal/serve"
	"repro/internal/store"
)

// serving is the read tier of train_serve: a Publisher the trainer publishes
// into, the serve.Engine subscribed to it, the HTTP server on loopback, and
// the last few snapshots, which the verifier recomputes answers from.
type serving struct {
	pub  *store.Publisher
	eng  *serve.Engine
	srv  *serve.Server
	base string // http://host:port

	mu    sync.Mutex
	snaps []*store.Snapshot // newest last, at most keptVersions

	backwards atomic.Int64 // responses whose version was below the connection's last
}

func startServing() (*serving, error) {
	sv := &serving{pub: store.NewPublisher(), eng: serve.NewEngine(0)}
	sv.eng.Attach(sv.pub)
	sv.pub.Subscribe(func(s *store.Snapshot) {
		sv.mu.Lock()
		defer sv.mu.Unlock()
		sv.snaps = append(sv.snaps, s)
		if len(sv.snaps) > keptVersions {
			sv.snaps = sv.snaps[1:]
		}
	})
	sv.srv = serve.New("127.0.0.1:0", sv.eng, sv.pub)
	addr, err := sv.srv.Start()
	if err != nil {
		return nil, fmt.Errorf("starting serve.Server: %w", err)
	}
	sv.base = "http://" + addr
	return sv, nil
}

func (sv *serving) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = sv.srv.Shutdown(ctx) // Shutdown falls back to Close itself
}

func (sv *serving) snapshot(version int) *store.Snapshot {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for _, s := range sv.snaps {
		if s.Version == version {
			return s
		}
	}
	return nil
}

func (sv *serving) versionErrors() int { return int(sv.backwards.Load()) }

// querier is one keep-alive connection of the load generator.
type querier struct {
	sv          *serving
	client      *http.Client
	rng         *mathx.RNG
	n, k        int
	lastVersion int
	topkSeen    int
	sp          *spanner
	lane        int
}

func (sv *serving) newQuerier(n, k, lane int, seed uint64, sp *spanner) *querier {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &querier{
		sv:     sv,
		client: &http.Client{Transport: tr, Timeout: 5 * time.Second},
		rng:    mathx.NewRNG(seed),
		n:      n, k: k, lastVersion: -1, sp: sp, lane: lane,
	}
}

// do sends query i: 70 % /topk, 20 % /shared, 10 % /members, vertex and
// community ids uniform. It reports whether the answer was a 200 with a
// snapshot version not below the connection's last and, for every
// verifyOneIn-th /topk, a body equal to the top-k recomputed from the
// snapshot of that version.
func (q *querier) do(int) bool {
	var path string
	vertex := -1
	switch r := q.rng.Float64(); {
	case r < 0.7:
		vertex = q.rng.Intn(q.n)
		path = "/topk?k=10&v=" + strconv.Itoa(vertex)
	case r < 0.9:
		path = "/shared?u=" + strconv.Itoa(q.rng.Intn(q.n)) + "&v=" + strconv.Itoa(q.rng.Intn(q.n))
	default:
		path = "/members?limit=100&c=" + strconv.Itoa(q.rng.Intn(q.k))
	}
	var startNS int64
	if q.sp != nil {
		startNS = q.sp.tr.Now()
	}
	ok := q.roundTrip(path, vertex)
	if q.sp != nil {
		route, _, _ := strings.Cut(path, "?")
		q.sp.async("serve.http"+route, q.lane, startNS, q.sp.tr.Now())
	}
	return ok
}

func (q *querier) roundTrip(path string, vertex int) bool {
	resp, err := q.client.Get(q.sv.base + path)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	version, err := strconv.Atoi(resp.Header.Get(serve.HeaderVersion))
	if err != nil {
		return false
	}
	if version < q.lastVersion {
		q.sv.backwards.Add(1)
		return false
	}
	q.lastVersion = version
	if vertex < 0 {
		return true
	}
	q.topkSeen++
	if q.topkSeen%verifyOneIn != 0 {
		return true
	}
	return q.verifyTopK(body, vertex, version)
}

// verifyTopK recomputes the answer from the snapshot the response names.
func (q *querier) verifyTopK(body []byte, vertex, version int) bool {
	var doc struct {
		Vertex  int                `json:"vertex"`
		Version int                `json:"version"`
		TopK    []serve.Membership `json:"topk"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return false
	}
	snap := q.sv.snapshot(version)
	if snap == nil || doc.Vertex != vertex || doc.Version != version {
		return false
	}
	want := referenceTopK(snap.PiRow(vertex), 10)
	if len(want) != len(doc.TopK) {
		return false
	}
	for i := range want {
		if want[i] != doc.TopK[i] {
			return false
		}
	}
	return true
}

// referenceTopK is the benchmark's own top-k: a full sort by weight
// descending, ties by community id, independent of the engine's selection.
func referenceTopK(row []float32, k int) []serve.Membership {
	all := make([]serve.Membership, len(row))
	for c, w := range row {
		all[c] = serve.Membership{Community: c, Weight: w}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		return all[i].Community < all[j].Community
	})
	return all[:min(k, len(all))]
}

// startQueries starts the open-loop generator — queryConns connections,
// queryRate queries per second in total — and returns the function that
// stops it and hands back the samples.
func (sv *serving) startQueries(n, k int, seed uint64, sp *spanner) func() *loopStats {
	ops := make([]func(int) bool, queryConns)
	qs := make([]*querier, queryConns)
	for c := range ops {
		qs[c] = sv.newQuerier(n, k, c, seed+100+uint64(c), sp)
		ops[c] = qs[c].do
	}
	stop := make(chan struct{})
	done := make(chan loopStats, 1)
	go func() { done <- runSenders(queryRate, stop, ops) }()
	return func() *loopStats {
		close(stop)
		st := <-done
		for _, q := range qs {
			q.client.CloseIdleConnections()
		}
		return &st
	}
}
