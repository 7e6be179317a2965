package serve

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// benchSnap has the shape of a trained snapshot: 90 % of each vertex's mass
// on min(9, K) randomly chosen communities with distinct random weights
// (a trained g100k snapshot at K = 64 holds 9.23 members per vertex), the
// rest spread evenly below the default threshold. Seeded by v, so runs are
// comparable.
func benchSnap(v, n, k int) *store.Snapshot {
	rng := rand.New(rand.NewSource(int64(v) + 1))
	strong := min(9, k)
	pi := make([]float32, n*k)
	share := make([]float32, strong)
	for a := 0; a < n; a++ {
		row := pi[a*k : (a+1)*k]
		var sum float32
		for j := range share {
			share[j] = 0.5 + rng.Float32()
			sum += share[j]
		}
		for c := range row {
			row[c] = 0.1 / float32(k)
		}
		for j, c := range rng.Perm(k)[:strong] {
			row[c] += 0.9 * share[j] / sum
		}
	}
	return &store.Snapshot{Version: v, N: n, K: k, Pi: pi, SealedAt: time.Now()}
}

// indexSink keeps BenchmarkBuildIndex's result live.
var indexSink *Index

// BenchmarkBuildIndex measures the inverted-index build alone, the part of
// a publish that scales with the snapshot.
func BenchmarkBuildIndex(b *testing.B) {
	snap := benchSnap(1, 100_000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = BuildIndex(snap, 0)
	}
}

// BenchmarkTopK measures the raw engine query path (one atomic load plus a
// partial selection over a K-wide row).
func BenchmarkTopK(b *testing.B) {
	const n, k = 100_000, 64
	eng := NewEngine(0)
	eng.Install(benchSnap(1, n, k))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.TopK(i%n, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeHTTP measures end-to-end query throughput and latency over
// real TCP with concurrent clients, reporting the qps and p99_us custom
// metrics; under open-loop load beside a live trainer the same path is the
// train_serve workload of `bash bench/run.sh` (query_p99_us).
func BenchmarkServeHTTP(b *testing.B) {
	const n, k, clients = 100_000, 64, 8
	eng := NewEngine(0)
	eng.Install(benchSnap(1, n, k))
	srv := New("127.0.0.1:0", eng, nil)
	addr, err := srv.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	var mu sync.Mutex
	var lat []time.Duration
	var wg sync.WaitGroup
	per := b.N/clients + 1
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			mine := make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				url := fmt.Sprintf("http://%s/topk?v=%d&k=10", addr, (c*per+i)%n)
				t0 := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mine = append(mine, time.Since(t0))
				if resp.StatusCode != 200 {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	b.ReportMetric(float64(len(lat))/elapsed.Seconds(), "qps")
	b.ReportMetric(float64(p99.Microseconds()), "p99_us")
}

// BenchmarkSnapshotFlip measures publish-to-visible latency: sealing cost is
// the caller's (store.TakeSnapshot); this is index build plus the atomic flip, the
// path the benchmark reports as flip_ms.
func BenchmarkSnapshotFlip(b *testing.B) {
	const n, k = 100_000, 64
	pub := store.NewPublisher()
	eng := NewEngine(0)
	eng.Attach(pub)
	// Two alternating pre-built snapshots so the measurement excludes slab
	// construction; versions must keep rising for Publish to accept them.
	a0, a1 := benchSnap(0, n, k), benchSnap(1, n, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := a0
		if i%2 == 1 {
			s = a1
		}
		s.Version = i + 1
		if err := pub.Publish(s); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(pub.LastFlipNS()), "last_flip_ns")
}
