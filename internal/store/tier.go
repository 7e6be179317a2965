package store

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// TieredStore layers the π backends into a read hierarchy:
//
//	hot   — an in-RAM LRU of recently read rows' wire bytes (the same
//	        arena-backed rowCache behind DKVStore's hot-row cache),
//	base  — the local tier, normally an MmapStore holding rows [0, base.N),
//	remote— an optional backing store (normally DKV) for rows ≥ base.N,
//	        addressed there by id − base.N.
//
// Every row a read returns is decoded from the same wire bytes regardless of
// which tier served it — a cached row is the verbatim re-encode of the bytes
// the lower tier produced — so the trained trajectory is bit-for-bit
// independent of the tier configuration, the same contract the DKV hot-row
// cache honours.
//
// Consistency relies on the tier being the SINGLE writer path: WriteRows and
// WritePiRows invalidate the written keys' hot entries synchronously before
// forwarding, and the training phase discipline (a phase never reads a row
// it writes) covers the window between a lower tier's write landing and the
// barrier. Because all writes flow through this store, the hot tier can
// survive Flush — unlike the multi-writer DKV cache, no other rank can
// change a row behind its back. Mutating base or remote directly while a
// TieredStore wraps them breaks this contract.
type TieredStore struct {
	base    PiStore
	remote  PiStore // nil = single-node out-of-core
	n, k    int
	baseN   int
	rb      int
	threads int

	mu   sync.Mutex
	hot  *rowCache // nil when hotRows == 0
	door *doorkeeper
	row  []byte // scratch wire row for cache feeds

	hotHits, hotMisses       *obs.Counter
	mmapHits, mmapMisses     *obs.Counter
	remoteHits, remoteMisses *obs.Counter
}

// TierStats is the plain-value view of the tier traffic counters.
type TierStats struct {
	HotHits, HotMisses       int64
	MmapHits, MmapMisses     int64
	RemoteHits, RemoteMisses int64
}

// NewTiered assembles the hierarchy. base is required; remote may be nil
// (single-node out-of-core, the common case). hotRows bounds the in-RAM
// cache (0 disables it). reg receives the store.tier.* counters; nil gets a
// private registry.
func NewTiered(base, remote PiStore, hotRows, threads int, reg *obs.Registry) (*TieredStore, error) {
	if base == nil {
		return nil, fmt.Errorf("store: tiered store needs a base tier")
	}
	k := base.K()
	n := base.NumRows()
	if remote != nil {
		if remote.K() != k {
			return nil, fmt.Errorf("store: tier K mismatch: base %d, remote %d", k, remote.K())
		}
		n += remote.NumRows()
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &TieredStore{
		base: base, remote: remote,
		n: n, k: k, baseN: base.NumRows(),
		rb: RowBytes(k), threads: threads,
		row:          make([]byte, RowBytes(k)),
		hotHits:      reg.Counter(obs.CtrTierHotHits),
		hotMisses:    reg.Counter(obs.CtrTierHotMisses),
		mmapHits:     reg.Counter(obs.CtrTierMmapHits),
		mmapMisses:   reg.Counter(obs.CtrTierMmapMisses),
		remoteHits:   reg.Counter(obs.CtrTierRemoteHits),
		remoteMisses: reg.Counter(obs.CtrTierRemoteMisses),
	}
	if hotRows > 0 {
		t.hot = newRowCache(hotRows, t.rb)
		t.door = newDoorkeeper(max(2*hotRows, 64))
	}
	return t, nil
}

// NumRows implements PiStore.
func (t *TieredStore) NumRows() int { return t.n }

// K implements PiStore.
func (t *TieredStore) K() int { return t.k }

// ReadsAreLocal implements LocalReader: local iff no remote tier and the
// base tier itself answers locally.
func (t *TieredStore) ReadsAreLocal() bool {
	return t.remote == nil && ReadsAreLocal(t.base)
}

// Stats returns a snapshot of the tier traffic counters.
func (t *TieredStore) Stats() TierStats {
	return TierStats{
		HotHits: t.hotHits.Load(), HotMisses: t.hotMisses.Load(),
		MmapHits: t.mmapHits.Load(), MmapMisses: t.mmapMisses.Load(),
		RemoteHits: t.remoteHits.Load(), RemoteMisses: t.remoteMisses.Load(),
	}
}

// ReadRows implements PiStore, walking the tiers per row: hot bytes decode
// in place; misses fan out to base and remote in owner-grouped batches and
// feed the hot cache on the way back.
func (t *TieredStore) ReadRows(ids []int32, dst *Rows) error {
	if err := checkIDs(ids, t.n); err != nil {
		return err
	}
	dst.Reset(len(ids), t.k)

	t.mu.Lock()
	defer t.mu.Unlock()

	// Tier 1: the hot cache.
	var basePos, remotePos []int // dst positions needing a lower tier
	var hits, misses int64
	for i, id := range ids {
		if t.hot != nil {
			if raw, ok := t.hot.get(id); ok {
				sum, err := DecodeRow(raw, dst.PiRow(i))
				if err != nil {
					return fmt.Errorf("store: tier cache key %d: %w", id, err)
				}
				dst.PhiSum[i] = sum
				hits++
				continue
			}
		}
		misses++
		if int(id) < t.baseN {
			basePos = append(basePos, i)
		} else {
			remotePos = append(remotePos, i)
		}
	}
	t.hotHits.Add(hits)
	t.hotMisses.Add(misses)

	// Tier 2: the local (mmap) tier.
	t.mmapHits.Add(int64(len(basePos)))
	t.mmapMisses.Add(int64(len(remotePos)))
	if err := t.readThrough(t.base, ids, basePos, 0, dst); err != nil {
		return err
	}

	// Tier 3: the remote backing store. Without one n == baseN, so the range
	// check above leaves remotePos empty.
	if len(remotePos) > 0 {
		t.remoteHits.Add(int64(len(remotePos)))
		if err := t.readThrough(t.remote, ids, remotePos, t.baseN, dst); err != nil {
			return err
		}
	}
	return nil
}

// readThrough reads ids[pos] (shifted by -offset in the lower tier's key
// space) from tier into the matching dst positions, feeding the hot cache.
// Caller holds t.mu.
func (t *TieredStore) readThrough(tier PiStore, ids []int32, pos []int, offset int, dst *Rows) error {
	if len(pos) == 0 {
		return nil
	}
	sub := make([]int32, len(pos))
	for i, p := range pos {
		sub[i] = ids[p] - int32(offset)
	}
	var tmp Rows
	if err := tier.ReadRows(sub, &tmp); err != nil {
		return err
	}
	for i, p := range pos {
		copy(dst.PiRow(p), tmp.PiRow(i))
		dst.PhiSum[p] = tmp.PhiSum[i]
		if t.hot != nil {
			id := ids[p]
			if !t.hot.contains(id) && t.door.admit(id) {
				EncodeRowPi(t.row, tmp.PiRow(i), tmp.PhiSum[i])
				t.hot.put(id, t.row)
			}
		}
	}
	return nil
}

// ReadRowsAsync implements PiStore. When a remote tier is configured the
// read may leave the process, but the tier walk itself is synchronous — the
// φ stage's pipelined plan still overlaps whole batches.
func (t *TieredStore) ReadRowsAsync(ids []int32, dst *Rows) (Pending, error) {
	if err := t.ReadRows(ids, dst); err != nil {
		return nil, err
	}
	return donePending{}, nil
}

// WriteRows implements PiStore: written keys are dropped from the hot tier
// synchronously, then the write forwards to the owning tier with SetPhiRow
// arithmetic applied there (all backends share the codec, so the result is
// bit-identical regardless of which tier lands it).
func (t *TieredStore) WriteRows(ids []int32, phi []float64) error {
	if len(phi) != len(ids)*t.k {
		return fmt.Errorf("store: phi has %d values, want %d", len(phi), len(ids)*t.k)
	}
	if err := checkIDs(ids, t.n); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hot != nil {
		for _, id := range ids {
			t.hot.remove(id)
		}
	}
	var firstErr error
	collect := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	basePos, remotePos := t.splitByTier(ids)
	collect(t.forwardWrite(t.base, ids, phi, basePos, 0))
	if len(remotePos) > 0 {
		collect(t.forwardWrite(t.remote, ids, phi, remotePos, t.baseN))
	}
	return firstErr
}

func (t *TieredStore) splitByTier(ids []int32) (basePos, remotePos []int) {
	for i, id := range ids {
		if int(id) < t.baseN {
			basePos = append(basePos, i)
		} else {
			remotePos = append(remotePos, i)
		}
	}
	return
}

func (t *TieredStore) forwardWrite(tier PiStore, ids []int32, phi []float64, pos []int, offset int) error {
	if len(pos) == 0 {
		return nil
	}
	sub := make([]int32, len(pos))
	subPhi := make([]float64, len(pos)*t.k)
	for i, p := range pos {
		sub[i] = ids[p] - int32(offset)
		copy(subPhi[i*t.k:(i+1)*t.k], phi[p*t.k:(p+1)*t.k])
	}
	if err := tier.WriteRows(sub, subPhi); err != nil {
		// Re-map the lower tier's vertex naming back to global ids where we
		// can't tell which row failed; the typed cause is preserved.
		if offset != 0 {
			return fmt.Errorf("store: remote tier (keys offset by %d): %w", offset, err)
		}
		return err
	}
	return nil
}

// WritePiRows implements PiWriter when every owning tier does — the
// streamed checkpoint-restore path.
func (t *TieredStore) WritePiRows(ids []int32, pi []float32, phiSum []float64) error {
	if len(pi) != len(ids)*t.k || len(phiSum) != len(ids) {
		return fmt.Errorf("store: pi/phiSum have %d/%d values, want %d/%d",
			len(pi), len(phiSum), len(ids)*t.k, len(ids))
	}
	if err := checkIDs(ids, t.n); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hot != nil {
		for _, id := range ids {
			t.hot.remove(id)
		}
	}
	basePos, remotePos := t.splitByTier(ids)
	for _, group := range []struct {
		tier   PiStore
		pos    []int
		offset int
	}{{t.base, basePos, 0}, {t.remote, remotePos, t.baseN}} {
		if len(group.pos) == 0 {
			continue
		}
		w, ok := group.tier.(PiWriter)
		if !ok {
			return fmt.Errorf("store: tier %T cannot restore verbatim rows", group.tier)
		}
		sub := make([]int32, len(group.pos))
		subPi := make([]float32, len(group.pos)*t.k)
		subSum := make([]float64, len(group.pos))
		for i, p := range group.pos {
			sub[i] = ids[p] - int32(group.offset)
			copy(subPi[i*t.k:(i+1)*t.k], pi[p*t.k:(p+1)*t.k])
			subSum[i] = phiSum[p]
		}
		if err := w.WritePiRows(sub, subPi, subSum); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements PiStore: the barrier forwards to every tier. The hot
// cache deliberately SURVIVES the barrier — this store is the single writer
// and invalidates synchronously on every write, so a cached row can never
// go stale (see the type comment).
func (t *TieredStore) Flush() error {
	if err := t.base.Flush(); err != nil {
		return err
	}
	if t.remote != nil {
		return t.remote.Flush()
	}
	return nil
}

// Snapshot implements Snapshotter: delegate when the base tier can seal
// itself and there is no remote; otherwise gather through the tiers
// directly (bypassing the hot cache, which a full sweep would churn).
func (t *TieredStore) Snapshot(version int, beta []float64) (*Snapshot, error) {
	if t.remote == nil {
		if snap, ok := t.base.(Snapshotter); ok {
			return snap.Snapshot(version, beta)
		}
	}
	snap := &Snapshot{
		Version: version,
		N:       t.n,
		K:       t.k,
		Pi:      make([]float32, t.n*t.k),
		Beta:    append([]float64(nil), beta...),
	}
	if err := t.snapshotTier(t.base, 0, t.baseN, snap); err != nil {
		return nil, err
	}
	if t.remote != nil {
		if err := t.snapshotTier(t.remote, t.baseN, t.n, snap); err != nil {
			return nil, err
		}
	}
	snap.SealedAt = time.Now()
	return snap, nil
}

// snapshotTier sweeps tier's rows into snap.Pi[lo*k : hi*k] in batches;
// tier keys run [0, hi-lo), global ids [lo, hi).
func (t *TieredStore) snapshotTier(tier PiStore, lo, hi int, snap *Snapshot) error {
	const batch = 4096
	var rows Rows
	ids := make([]int32, 0, batch)
	for a := lo; a < hi; a += batch {
		end := min(a+batch, hi)
		ids = ids[:0]
		for v := a; v < end; v++ {
			ids = append(ids, int32(v-lo))
		}
		if err := tier.ReadRows(ids, &rows); err != nil {
			return fmt.Errorf("store: tier snapshot at key %d: %w", a, err)
		}
		off := a * t.k
		par.For(len(ids), t.threads, func(rlo, rhi int) {
			for i := rlo; i < rhi; i++ {
				copy(snap.Pi[off+i*t.k:off+(i+1)*t.k], rows.PiRow(i))
			}
		})
	}
	return nil
}

// interface conformance
var (
	_ PiStore     = (*TieredStore)(nil)
	_ LocalReader = (*TieredStore)(nil)
	_ PiWriter    = (*TieredStore)(nil)
	_ Snapshotter = (*TieredStore)(nil)
)
