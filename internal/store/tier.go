package store

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// TieredStore layers the π backends into a read hierarchy:
//
//	hot  — an in-RAM LRU of recently read rows' wire bytes (the same
//	       arena-backed rowCache behind DKVStore's hot-row cache),
//	base — the local tier, normally an MmapStore holding every row.
//
// Every row a read returns is decoded from the same wire bytes regardless of
// which tier served it — a cached row is the verbatim re-encode of the bytes
// the base tier produced — so the trained trajectory is bit-for-bit
// independent of the tier configuration, the same contract the DKV hot-row
// cache honours.
//
// Consistency relies on the tier being the SINGLE writer path: WriteRows and
// WritePiRows invalidate the written keys' hot entries synchronously before
// forwarding, and the training phase discipline (a phase never reads a row
// it writes) covers the window between a base write landing and the barrier.
// Because all writes flow through this store, the hot tier can survive
// Flush — unlike the multi-writer DKV cache, no other rank can change a row
// behind its back. Mutating base directly while a TieredStore wraps it
// breaks this contract.
type TieredStore struct {
	base PiStore
	n, k int
	rb   int

	mu   sync.Mutex
	hot  *rowCache // nil when hotRows == 0
	door *doorkeeper
	row  []byte // scratch wire row for cache feeds

	hotHits, hotMisses *obs.Counter
}

// TierStats is the plain-value view of the tier traffic counters: rows the
// hot cache served, and rows that fell past it to the base tier.
type TierStats struct {
	HotHits, HotMisses int64
}

// NewTiered assembles the hierarchy. base is required; remote must be nil —
// the tier has no remote arm (the distributed engine's DKVStore is its own
// backend). hotRows bounds the in-RAM cache (0 disables it). reg receives the
// store.tier.* counters; nil gets a private registry.
func NewTiered(base, remote PiStore, hotRows, threads int, reg *obs.Registry) (*TieredStore, error) {
	if base == nil {
		return nil, fmt.Errorf("store: tiered store needs a base tier")
	}
	if remote != nil {
		return nil, fmt.Errorf("store: tiered store has no remote tier (got %T)", remote)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	t := &TieredStore{
		base: base, n: base.NumRows(), k: base.K(),
		rb:        RowBytes(base.K()),
		row:       make([]byte, RowBytes(base.K())),
		hotHits:   reg.Counter(obs.CtrTierHotHits),
		hotMisses: reg.Counter(obs.CtrTierHotMisses),
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

// ReadsAreLocal implements LocalReader: local iff the base tier answers
// locally.
func (t *TieredStore) ReadsAreLocal() bool { return ReadsAreLocal(t.base) }

// Stats returns a snapshot of the tier traffic counters.
func (t *TieredStore) Stats() TierStats {
	return TierStats{HotHits: t.hotHits.Load(), HotMisses: t.hotMisses.Load()}
}

// ReadRows implements PiStore: hot bytes decode in place; the misses go to
// the base tier as one batch and feed the hot cache on the way back.
func (t *TieredStore) ReadRows(ids []int32, dst *Rows) error {
	if err := checkIDs(ids, t.n); err != nil {
		return err
	}
	dst.Reset(len(ids), t.k)

	t.mu.Lock()
	defer t.mu.Unlock()

	// Tier 1: the hot cache.
	var missPos []int // dst positions the base tier must fill
	for i, id := range ids {
		if t.hot != nil {
			if raw, ok := t.hot.get(id); ok {
				sum, err := DecodeRow(raw, dst.PiRow(i))
				if err != nil {
					return fmt.Errorf("store: tier cache key %d: %w", id, err)
				}
				dst.PhiSum[i] = sum
				continue
			}
		}
		missPos = append(missPos, i)
	}
	t.hotHits.Add(int64(len(ids) - len(missPos)))
	t.hotMisses.Add(int64(len(missPos)))
	if len(missPos) == 0 {
		return nil
	}

	// Tier 2: the base (mmap) tier.
	sub := make([]int32, len(missPos))
	for i, p := range missPos {
		sub[i] = ids[p]
	}
	var tmp Rows
	if err := t.base.ReadRows(sub, &tmp); err != nil {
		return err
	}
	for i, p := range missPos {
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

// ReadRowsAsync implements PiStore; tier reads complete synchronously.
func (t *TieredStore) ReadRowsAsync(ids []int32, dst *Rows) (Pending, error) {
	if err := t.ReadRows(ids, dst); err != nil {
		return nil, err
	}
	return donePending{}, nil
}

// dropHot removes the written keys' hot entries; the caller holds t.mu.
func (t *TieredStore) dropHot(ids []int32) {
	if t.hot != nil {
		for _, id := range ids {
			t.hot.remove(id)
		}
	}
}

// WriteRows implements PiStore: written keys are dropped from the hot tier
// synchronously, then the write forwards to the base tier, which applies
// SetPhiRow arithmetic (all backends share the codec, so the result is
// bit-identical to an untiered write).
func (t *TieredStore) WriteRows(ids []int32, phi []float64) error {
	if len(phi) != len(ids)*t.k {
		return fmt.Errorf("store: phi has %d values, want %d", len(phi), len(ids)*t.k)
	}
	if err := checkIDs(ids, t.n); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropHot(ids)
	return t.base.WriteRows(ids, phi)
}

// WritePiRows implements PiWriter when the base tier does — the streamed
// checkpoint-restore path.
func (t *TieredStore) WritePiRows(ids []int32, pi []float32, phiSum []float64) error {
	w, ok := t.base.(PiWriter)
	if !ok {
		return fmt.Errorf("store: tier %T cannot restore verbatim rows", t.base)
	}
	if len(pi) != len(ids)*t.k || len(phiSum) != len(ids) {
		return fmt.Errorf("store: pi/phiSum have %d/%d values, want %d/%d",
			len(pi), len(phiSum), len(ids)*t.k, len(ids))
	}
	if err := checkIDs(ids, t.n); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropHot(ids)
	return w.WritePiRows(ids, pi, phiSum)
}

// Flush implements PiStore: the barrier forwards to the base tier. The hot
// cache deliberately SURVIVES the barrier — this store is the single writer
// and invalidates synchronously on every write, so a cached row can never
// go stale (see the type comment).
func (t *TieredStore) Flush() error { return t.base.Flush() }

// interface conformance
var (
	_ PiStore     = (*TieredStore)(nil)
	_ LocalReader = (*TieredStore)(nil)
	_ PiWriter    = (*TieredStore)(nil)
)
