package store

import (
	"fmt"
	"sync"

	"repro/internal/dkv"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/transport"
)

// Hot-row cache admission policies (CacheConfig.Policy).
const (
	// CachePolicyLRU admits every fetched remote row (plain LRU).
	CachePolicyLRU = "lru"
	// CachePolicyAdmit2 admits a row only on its second miss within a
	// bounded window, unless its degree clears CacheConfig.MinDegree —
	// high-degree vertices recur across neighbor samples, one-shot rows
	// should not churn them out.
	CachePolicyAdmit2 = "admit2"
)

// CacheConfig configures DKVStore's hot-row cache of remote π rows.
type CacheConfig struct {
	// Rows bounds the cache in π rows; 0 disables it.
	Rows int
	// Policy is the admission policy: "" or CachePolicyLRU admits every
	// fetched row, CachePolicyAdmit2 gates admission on recurrence (and
	// degree, when a table is supplied via SetDegrees).
	Policy string
	// MinDegree, with CachePolicyAdmit2 and a degree table, admits rows of
	// vertex degree ≥ MinDegree immediately, bypassing the seen-twice gate.
	MinDegree int
	// CrossIter keeps the cache alive across phase barriers. Flush then
	// invalidates exactly the keys written since the previous barrier —
	// the union across ranks, obtained through the SetWriteSetExchange
	// collective hook — instead of dropping everything, so unwritten hot
	// rows survive from iteration to iteration. Without a hook installed,
	// Flush conservatively falls back to the blanket drop.
	CrossIter bool
}

// validate rejects unknown policies early (a typo'd flag should fail the
// run, not silently disable admission).
func (c CacheConfig) validate() error {
	switch c.Policy {
	case "", CachePolicyLRU, CachePolicyAdmit2:
		return nil
	default:
		return fmt.Errorf("store: unknown hot-cache policy %q (want %q or %q)",
			c.Policy, CachePolicyLRU, CachePolicyAdmit2)
	}
}

// CacheStats is a snapshot of the hot-row cache traffic. The live values
// are obs counters (store.cache_* in the run's registry); this struct is
// the plain-value view CacheStats() returns.
type CacheStats struct {
	Hits          int64 // rows served from the cache instead of the network
	Misses        int64 // remote rows that had to be fetched
	Evictions     int64 // rows displaced by the LRU bound
	Invalidations int64 // rows dropped because their key was written
}

// DKVStore implements PiStore over the distributed key-value store: every
// read is grouped by owning rank and issued as one request per peer, and
// ReadRowsAsync exposes the DKV futures that the double-buffered update_phi
// pipeline overlaps with compute.
//
// When the cache is enabled (CacheConfig.Rows > 0), a bounded LRU holds the
// wire bytes of recently fetched REMOTE rows. Within a phase the algorithm
// never reads a row it writes, so a cached row is bit-identical to a
// re-fetched one until the next phase barrier. What happens at the barrier
// depends on the mode:
//
//   - Per-phase (default): Flush drops the whole cache, so nothing survives
//     a barrier. Trivially consistent, but all cross-phase locality is lost.
//   - Cross-iteration (CacheConfig.CrossIter): Flush drops exactly the keys
//     some rank wrote since the previous barrier — the ranks exchange their
//     write sets through the collective hook installed with
//     SetWriteSetExchange — and every other cached row survives. A cached
//     row is dropped precisely when its store value may have changed, so
//     reads still never observe stale bytes and the trained trajectory
//     stays byte-for-byte independent of the cache configuration.
type DKVStore struct {
	kv      *dkv.Store
	n, k    int
	threads int

	mu       sync.Mutex
	cacheCfg CacheConfig
	cache    *rowCache   // nil when the cache is disabled
	door     *doorkeeper // nil unless Policy is admit2
	degrees  []int32     // optional per-vertex degrees for MinDegree admission
	writeSet []int32     // keys written since the last Flush (CrossIter only)
	exchange func(localWrites []int32) ([]int32, error)

	hits, misses, evictions, invalidations *obs.Counter
}

// NewDKVCache creates the store (and its server goroutine) for this rank
// with an explicit hot-row cache configuration. The DKV traffic and cache
// counters are registered in reg (nil falls back to a private registry),
// which is how a run's telemetry layer observes the store.
func NewDKVCache(conn transport.Conn, n, k, threads int, cc CacheConfig, reg *obs.Registry) (*DKVStore, error) {
	if err := cc.validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	kv, err := dkv.NewWithRegistry(conn, n, RowBytes(k), reg)
	if err != nil {
		return nil, err
	}
	s := &DKVStore{
		kv: kv, n: n, k: k, threads: threads, cacheCfg: cc,
		hits:          reg.Counter(obs.CtrCacheHits),
		misses:        reg.Counter(obs.CtrCacheMisses),
		evictions:     reg.Counter(obs.CtrCacheEvictions),
		invalidations: reg.Counter(obs.CtrCacheInvalidations),
	}
	if cc.Rows > 0 {
		s.cache = newRowCache(cc.Rows, RowBytes(k))
		if cc.Policy == CachePolicyAdmit2 {
			// The sighting window is twice the cache: recurrence further
			// apart than that would not have survived the LRU anyway.
			s.door = newDoorkeeper(2 * cc.Rows)
		}
	}
	return s, nil
}

// SetWriteSetExchange installs the collective hook cross-iteration Flush
// uses: f receives the keys this rank wrote since the previous barrier and
// must return the union of every rank's write set. Every rank must call
// Flush at the same point in program order (the engine's barrier stage
// guarantees this), because f runs a collective underneath — dist wires it
// to cluster.Comm.AllGather.
func (s *DKVStore) SetWriteSetExchange(f func(localWrites []int32) ([]int32, error)) {
	s.mu.Lock()
	s.exchange = f
	s.mu.Unlock()
}

// SetDegrees supplies the per-vertex degree table used by degree-aware
// admission (CacheConfig.MinDegree); deg[a] is vertex a's degree.
func (s *DKVStore) SetDegrees(deg []int32) {
	s.mu.Lock()
	s.degrees = deg
	s.mu.Unlock()
}

// NumRows implements PiStore.
func (s *DKVStore) NumRows() int { return s.n }

// K implements PiStore.
func (s *DKVStore) K() int { return s.k }

// ReadsAreLocal implements LocalReader: reads stay in-process exactly when
// this rank owns every key, i.e. the Ranks=1 degenerate case. Multi-rank
// stores answer false and the φ stage keeps the fetch/compute overlap.
func (s *DKVStore) ReadsAreLocal() bool {
	lo, hi := s.kv.OwnedRange()
	return lo == 0 && hi == s.n
}

// SetTracer forwards span emission to the underlying DKV store — client
// response waits and the server request loop both (see dkv.Store.SetTracer).
func (s *DKVStore) SetTracer(tr *obs.Tracer) { s.kv.SetTracer(tr) }

// CacheStats returns a snapshot of the hot-row cache counters.
func (s *DKVStore) CacheStats() CacheStats {
	return CacheStats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Evictions:     s.evictions.Load(),
		Invalidations: s.invalidations.Load(),
	}
}

// cacheSizes returns the cache's index size and recency-ring length; tests
// assert they never drift apart (the accounting bug the FIFO version had).
func (s *DKVStore) cacheSizes() (indexLen, ringLen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.len(), s.cache.ringLen()
}

// Close stops the server goroutine; the underlying transport stays open.
func (s *DKVStore) Close() error { return s.kv.Close() }

// InitOwned populates this rank's shard from a deterministic row
// initialiser: initRow fills pi (length K) for vertex a and returns Σφ_a.
func (s *DKVStore) InitOwned(initRow func(a int, pi []float32) float64) {
	lo, hi := s.kv.OwnedRange()
	row := make([]byte, RowBytes(s.k))
	pi := make([]float32, s.k)
	for a := lo; a < hi; a++ {
		phiSum := initRow(a, pi)
		EncodeRowPi(row, pi, phiSum)
		s.kv.WriteLocal(a, row)
	}
}

// owned reports whether id falls inside this rank's shard (a free read — the
// cache only holds rows that would otherwise cross the network).
func (s *DKVStore) owned(id int32) bool {
	lo, hi := s.kv.OwnedRange()
	return int(id) >= lo && int(id) < hi
}

// cacheLookup serves id from the cache into dst row i; reports whether it
// hit. Only called when the cache is enabled.
func (s *DKVStore) cacheLookup(id int32, dst *Rows, i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.cache.get(id)
	if !ok {
		s.misses.Inc()
		return false
	}
	// Cached values are always full rows (inserted from validated fetches),
	// so a decode failure here cannot happen; treat it as a miss defensively.
	sum, err := DecodeRow(raw, dst.PiRow(i))
	if err != nil {
		s.misses.Inc()
		return false
	}
	s.hits.Inc()
	dst.PhiSum[i] = sum
	return true
}

// cacheInsert offers a fetched remote row to the cache: the admission
// policy decides whether it enters, and the LRU bound decides what leaves.
// A row already present is left as is (identical bytes within a phase).
func (s *DKVStore) cacheInsert(id int32, raw []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache.contains(id) {
		return
	}
	if !s.admitLocked(id) {
		return
	}
	if s.cache.put(id, raw) {
		s.evictions.Inc()
	}
}

// admitLocked applies the admission policy; the caller holds s.mu.
func (s *DKVStore) admitLocked(id int32) bool {
	if s.door == nil {
		return true
	}
	if s.degrees != nil && s.cacheCfg.MinDegree > 0 && s.degrees[id] >= int32(s.cacheCfg.MinDegree) {
		return true
	}
	return s.door.admit(id)
}

// dkvPending finishes an asynchronous read: waits for the DKV future, then
// decodes the fetched wire rows into the destination buffer in parallel and
// feeds the cache.
type dkvPending struct {
	store *DKVStore
	fut   *dkv.Future
	dst   *Rows
	// missIDs[i] was fetched into raw row i and lands in dst row missPos[i];
	// with the cache disabled missPos is nil and raw row i maps to dst row i.
	missIDs []int32
	missPos []int
	done    bool
	err     error
}

func (p *dkvPending) Wait() error {
	if p.done {
		return p.err
	}
	p.done = true
	if p.err = p.fut.Wait(); p.err != nil {
		return p.err
	}
	s := p.store
	rb := RowBytes(s.k)
	raw := p.dst.raw
	var errs errCollector
	par.For(len(p.missIDs), s.threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pos := i
			if p.missPos != nil {
				pos = p.missPos[i]
			}
			sum, err := DecodeRow(raw[i*rb:(i+1)*rb], p.dst.PiRow(pos))
			if err != nil {
				errs.set(fmt.Errorf("store: key %d: %w", p.missIDs[i], err))
				continue
			}
			p.dst.PhiSum[pos] = sum
		}
	})
	if p.err = errs.get(); p.err != nil {
		return p.err
	}
	if s.cacheCfg.Rows > 0 {
		for i, id := range p.missIDs {
			if !s.owned(id) {
				s.cacheInsert(id, raw[i*rb:(i+1)*rb])
			}
		}
	}
	return nil
}

// ReadRowsAsync implements PiStore. Cached rows are decoded immediately;
// the rest go out as one batched DKV read whose future the returned Pending
// wraps. A batch fully served by the cache short-circuits: no DKV call, no
// future — Wait on the returned Pending is an immediate no-op.
func (s *DKVStore) ReadRowsAsync(ids []int32, dst *Rows) (Pending, error) {
	if err := checkIDs(ids, s.n); err != nil {
		return nil, err
	}
	dst.Reset(len(ids), s.k)
	rb := RowBytes(s.k)

	missIDs := ids
	var missPos []int
	if s.cacheCfg.Rows > 0 {
		missIDs = make([]int32, 0, len(ids))
		missPos = make([]int, 0, len(ids))
		for i, id := range ids {
			if s.owned(id) || !s.cacheLookup(id, dst, i) {
				missIDs = append(missIDs, id)
				missPos = append(missPos, i)
			}
		}
		if len(missIDs) == 0 {
			return donePending{}, nil
		}
	}

	need := len(missIDs) * rb
	if cap(dst.raw) < need {
		dst.raw = make([]byte, need)
	}
	dst.raw = dst.raw[:need]
	fut, err := s.kv.ReadBatchAsync(missIDs, dst.raw)
	if err != nil {
		return nil, err
	}
	return &dkvPending{store: s, fut: fut, dst: dst, missIDs: missIDs, missPos: missPos}, nil
}

// ReadRows implements PiStore (the synchronous form).
func (s *DKVStore) ReadRows(ids []int32, dst *Rows) error {
	p, err := s.ReadRowsAsync(ids, dst)
	if err != nil {
		return err
	}
	return p.Wait()
}

// WriteRows implements PiStore: rows are encoded in parallel and committed
// through one batched, acknowledged DKV write. Written keys are dropped from
// the cache so a stale copy can never outlive the row — index and recency
// ring together, which is the accounting the FIFO version got wrong — and,
// in cross-iteration mode, recorded in the write set the next Flush
// exchanges with the other ranks.
func (s *DKVStore) WriteRows(ids []int32, phi []float64) error {
	if len(phi) != len(ids)*s.k {
		return fmt.Errorf("store: phi has %d values, want %d", len(phi), len(ids)*s.k)
	}
	if err := checkIDs(ids, s.n); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	rb := RowBytes(s.k)
	values := make([]byte, len(ids)*rb)
	var errs errCollector
	par.For(len(ids), s.threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := EncodeRow(values[i*rb:(i+1)*rb], phi[i*s.k:(i+1)*s.k]); err != nil {
				errs.set(fmt.Errorf("store: vertex %d: %w", ids[i], err))
			}
		}
	})
	if err := errs.get(); err != nil {
		return err
	}
	return s.commit(ids, values)
}

// WritePiRows implements PiWriter: already-normalised rows are encoded
// verbatim and committed like WriteRows' — the restore path of a streamed
// checkpoint load, which the master of a distributed run drives for every
// rank's shard.
func (s *DKVStore) WritePiRows(ids []int32, pi []float32, phiSum []float64) error {
	if len(pi) != len(ids)*s.k || len(phiSum) != len(ids) {
		return fmt.Errorf("store: pi/phiSum have %d/%d values, want %d/%d",
			len(pi), len(phiSum), len(ids)*s.k, len(ids))
	}
	if err := checkIDs(ids, s.n); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	rb := RowBytes(s.k)
	values := make([]byte, len(ids)*rb)
	for i := range ids {
		EncodeRowPi(values[i*rb:(i+1)*rb], pi[i*s.k:(i+1)*s.k], phiSum[i])
	}
	return s.commit(ids, values)
}

// commit is the one write path behind WriteRows and WritePiRows: it drops
// the written keys from the cache (recording them for the cross-iteration
// exchange) and sends the encoded rows as one acknowledged DKV batch.
func (s *DKVStore) commit(ids []int32, values []byte) error {
	if s.cacheCfg.Rows > 0 {
		s.mu.Lock()
		for _, id := range ids {
			if s.cache.remove(id) {
				s.invalidations.Inc()
			}
		}
		if s.cacheCfg.CrossIter {
			s.writeSet = append(s.writeSet, ids...)
		}
		s.mu.Unlock()
	}
	return s.kv.WriteBatch(ids, values)
}

// Flush implements PiStore: called at every phase barrier, it invalidates
// the hot-row cache (writes are already acknowledged by WriteRows; global
// visibility is the caller's collective barrier, which this accompanies).
//
// Per-phase mode drops everything. Cross-iteration mode exchanges write
// sets — every rank contributes the keys it wrote since the previous
// barrier and receives the union — and drops exactly those keys, letting
// unwritten hot rows survive the barrier. Rows this rank wrote were already
// dropped locally by WriteRows; the exchange is what catches PEER writes to
// rows sitting in this rank's cache.
func (s *DKVStore) Flush() error {
	if s.cacheCfg.Rows == 0 {
		return nil
	}
	s.mu.Lock()
	exchange := s.exchange
	if !s.cacheCfg.CrossIter || exchange == nil {
		s.invalidations.Add(int64(s.cache.len()))
		s.cache.clear()
		s.writeSet = s.writeSet[:0]
		s.mu.Unlock()
		return nil
	}
	local := append([]int32(nil), s.writeSet...)
	s.writeSet = s.writeSet[:0]
	s.mu.Unlock()

	// The exchange is a collective: every rank calls it here, in the same
	// program order, even with an empty local write set.
	written, err := exchange(local)
	if err != nil {
		return err
	}
	s.mu.Lock()
	for _, id := range written {
		if s.cache.remove(id) {
			s.invalidations.Inc()
		}
	}
	s.mu.Unlock()
	return nil
}

// interface conformance
var (
	_ PiStore     = (*DKVStore)(nil)
	_ LocalReader = (*DKVStore)(nil)
	_ PiWriter    = (*DKVStore)(nil)
)
