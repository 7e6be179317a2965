// Package serve is the read tier that turns training output into a
// queryable product: a lock-free query engine over the current immutable π
// snapshot (store.Snapshot) plus an HTTP/JSON API (http.go).
//
// The data plane is RCU all the way down. The training engine seals a
// snapshot at a phase barrier and hands it to a store.Publisher; the
// publisher runs this package's subscriber — which builds the per-snapshot
// inverted index, off the read path — and then flips one atomic pointer.
// Every query loads that pointer exactly once, so each response is
// internally consistent with exactly one snapshot version even while the
// next iteration is being trained and published underneath it. Readers
// never take a lock; publishers never wait for readers.
package serve

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Membership is one (community, weight) entry of a vertex's π row.
type Membership struct {
	Community int     `json:"community"`
	Weight    float32 `json:"weight"`
}

// Member is one (vertex, weight) entry of a community's member list.
type Member struct {
	Vertex int     `json:"vertex"`
	Weight float32 `json:"weight"`
}

// Index is the per-snapshot inverted view: for each community, the member
// vertices whose membership weight clears the threshold, sorted by weight
// descending (ties by vertex id for determinism). It is built once at
// publish time and never mutated, so reads need no synchronisation.
type Index struct {
	// Threshold is the membership cut-off used to build the lists.
	Threshold float32
	members   [][]Member
}

// Members returns community c's list (strongest first); nil when c is out
// of range.
func (ix *Index) Members(c int) []Member {
	if c < 0 || c >= len(ix.members) {
		return nil
	}
	return ix.members[c]
}

// DefaultThreshold is the adaptive membership cut-off used when none is
// given: 1.5/K separates active memberships from the Dirichlet floor (the
// same default internal/metrics uses for covers).
func DefaultThreshold(k int) float32 { return 1.5 / float32(k) }

// BuildIndex assembles the inverted index in four linear steps, O(N·K +
// members) with a constant number of allocations; it runs inside Publish,
// never on the query path.
//
//  1. Count: one scan of π counts each community's members; a prefix sum
//     gives every community its segment of one key slab.
//  2. Fill: a second scan writes each member, in ascending vertex order, as
//     the key ^bits(weight)<<32 | vertex. Weights clearing a positive
//     threshold are positive, so their IEEE bits order like their values
//     and the complemented bits order strongest first.
//  3. Order: a stable LSD radix sort of each segment on the key's upper 32
//     bits. Stability keeps equal weights in vertex order.
//  4. Decode: keys become one []Member slab; each community's list is a
//     capped sub-slice of it, and an empty community stays nil.
//
// Both scans test all N·K entries, of which a trained snapshot keeps about
// one in seven, so they test without branching: the count adds the
// comparison, and the fill first lists a row's hits and then writes only
// those. The vertex id lives in the key's low 32 bits, so N must be below 2^32.
func BuildIndex(s *store.Snapshot, threshold float32) *Index {
	if threshold <= 0 {
		threshold = DefaultThreshold(s.K)
	}
	ix := &Index{Threshold: threshold, members: make([][]Member, s.K)}
	// end[c] counts community c, then (after the prefix sum) is the start of
	// its segment, then (after the fill has advanced it) the segment's end.
	counters := make([]int, 2*s.K)
	end, hitBuf := counters[:s.K], counters[s.K:]
	for a := 0; a < s.N; a++ {
		row := s.PiRow(a)
		cnt := end[:len(row)]
		for c, w := range row {
			var hit int
			if w >= threshold {
				hit = 1
			}
			cnt[c] += hit
		}
	}
	total := 0
	for c, n := range end {
		end[c] = total
		total += n
	}
	if total == 0 {
		return ix
	}
	buf := make([]uint64, 2*total)
	keys, scratch := buf[:total], buf[total:]
	for a := 0; a < s.N; a++ {
		row := s.PiRow(a)
		hits := hitBuf[:len(row)]
		n := 0
		for c, w := range row {
			hits[n] = c
			if w >= threshold {
				n++
			}
		}
		for _, c := range hits[:n] {
			keys[end[c]] = uint64(^math.Float32bits(row[c]))<<32 | uint64(a)
			end[c]++
		}
	}
	slab := make([]Member, total)
	lo := 0
	for c, hi := range end {
		if hi == lo {
			continue
		}
		radixSortHigh32(keys[lo:hi], scratch[lo:hi])
		for i, key := range keys[lo:hi] {
			slab[lo+i] = Member{Vertex: int(uint32(key)), Weight: math.Float32frombits(^uint32(key >> 32))}
		}
		ix.members[c] = slab[lo:hi:hi]
		lo = hi
	}
	return ix
}

// radixSortHigh32 stably sorts keys ascending by their upper 32 bits with
// four 8-bit LSD passes through scratch (len(scratch) >= len(keys)); the
// even pass count leaves the result in keys.
func radixSortHigh32(keys, scratch []uint64) {
	var counts [4][256]int
	for _, key := range keys {
		counts[0][byte(key>>32)]++
		counts[1][byte(key>>40)]++
		counts[2][byte(key>>48)]++
		counts[3][byte(key>>56)]++
	}
	src, dst := keys, scratch[:len(keys)]
	for pass := range counts {
		shift := 32 + 8*uint(pass)
		cnt := &counts[pass]
		off := 0
		for d, n := range cnt {
			cnt[d] = off
			off += n
		}
		for _, key := range src {
			d := byte(key >> shift)
			dst[cnt[d]] = key
			cnt[d]++
		}
		src, dst = dst, src
	}
}

// view pairs a snapshot with its index; the engine flips one pointer to
// both, so a query can never see snapshot v with index v-1.
type view struct {
	snap *store.Snapshot
	idx  *Index
}

// Engine answers membership queries against the current snapshot. Install
// (or a subscribed Publisher) is the only writer; queries are wait-free
// pointer loads. The zero Engine is not ready — construct with NewEngine.
type Engine struct {
	cur       atomic.Pointer[view]
	threshold float32
}

// NewEngine returns an engine with the given membership threshold for its
// inverted indexes (<= 0 selects DefaultThreshold at install time).
func NewEngine(threshold float32) *Engine {
	return &Engine{threshold: threshold}
}

// Attach subscribes the engine to a publisher: every published snapshot is
// indexed and installed before the publisher's pointer flip completes, so
// the engine's version can never lag what the publisher reports current.
func (e *Engine) Attach(p *store.Publisher) {
	p.Subscribe(e.Install)
}

// Install indexes snap and flips the engine's view to it.
func (e *Engine) Install(snap *store.Snapshot) {
	v := &view{snap: snap, idx: BuildIndex(snap, e.threshold)}
	e.cur.Store(v)
}

// Snapshot returns the currently served snapshot (nil before the first
// install).
func (e *Engine) Snapshot() *store.Snapshot {
	if v := e.cur.Load(); v != nil {
		return v.snap
	}
	return nil
}

// ErrNotReady is returned (wrapped) by queries before the first snapshot.
var ErrNotReady = fmt.Errorf("serve: no snapshot published yet")

// load returns the current view or ErrNotReady. Each query calls it exactly
// once — the single atomic load that makes a response one-version-consistent.
func (e *Engine) load() (*view, error) {
	v := e.cur.Load()
	if v == nil {
		return nil, ErrNotReady
	}
	return v, nil
}

// TopK returns vertex v's k strongest community memberships (descending
// weight, ties by community id), with the snapshot they came from.
func (e *Engine) TopK(vertex, k int) ([]Membership, *store.Snapshot, error) {
	vw, err := e.load()
	if err != nil {
		return nil, nil, err
	}
	s := vw.snap
	if vertex < 0 || vertex >= s.N {
		return nil, s, fmt.Errorf("serve: vertex %d out of range [0,%d)", vertex, s.N)
	}
	if k <= 0 || k > s.K {
		k = s.K
	}
	row := s.PiRow(vertex)
	top := make([]Membership, 0, k)
	for c, w := range row {
		if len(top) < k {
			top = append(top, Membership{Community: c, Weight: w})
			if len(top) == k {
				sortMemberships(top)
			}
			continue
		}
		if w > top[k-1].Weight {
			top[k-1] = Membership{Community: c, Weight: w}
			// Re-sift the new entry into place (k is small; insertion beats
			// a heap for the serving workload's k ≈ 10).
			for i := k - 1; i > 0 && greater(top[i], top[i-1]); i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
		}
	}
	if len(top) < k {
		sortMemberships(top)
	}
	return top, s, nil
}

func greater(a, b Membership) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	return a.Community < b.Community
}

// compareMemberships is greater as a slices.SortFunc comparator.
func compareMemberships(a, b Membership) int {
	if greater(a, b) {
		return -1
	}
	if greater(b, a) {
		return 1
	}
	return 0
}

func sortMemberships(m []Membership) {
	slices.SortFunc(m, compareMemberships)
}

// Members returns up to limit members of community c (strongest first) from
// the per-snapshot inverted index; limit <= 0 returns the whole list.
func (e *Engine) Members(c, limit int) ([]Member, *store.Snapshot, error) {
	vw, err := e.load()
	if err != nil {
		return nil, nil, err
	}
	s := vw.snap
	if c < 0 || c >= s.K {
		return nil, s, fmt.Errorf("serve: community %d out of range [0,%d)", c, s.K)
	}
	m := vw.idx.Members(c)
	if limit > 0 && limit < len(m) {
		m = m[:limit]
	}
	return m, s, nil
}

// SharedCommunity reports the communities vertices u and v both belong to
// at the index's membership threshold, strongest (by the pairwise minimum
// weight) first. Share is true when the list is non-empty.
func (e *Engine) SharedCommunity(u, v int) ([]Membership, *store.Snapshot, error) {
	vw, err := e.load()
	if err != nil {
		return nil, nil, err
	}
	s := vw.snap
	if u < 0 || u >= s.N || v < 0 || v >= s.N {
		return nil, s, fmt.Errorf("serve: vertex pair (%d,%d) out of range [0,%d)", u, v, s.N)
	}
	thr := vw.idx.Threshold
	ru, rv := s.PiRow(u), s.PiRow(v)
	var shared []Membership
	for c := 0; c < s.K; c++ {
		if ru[c] >= thr && rv[c] >= thr {
			w := ru[c]
			if rv[c] < w {
				w = rv[c]
			}
			shared = append(shared, Membership{Community: c, Weight: w})
		}
	}
	sortMemberships(shared)
	return shared, s, nil
}

// Staleness returns the age of snapshot s at time now.
func Staleness(s *store.Snapshot, now time.Time) time.Duration {
	return now.Sub(s.SealedAt)
}
