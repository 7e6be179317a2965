package store

import (
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
)

// TieredStore is a pass-through over one base store, normally an MmapStore:
// the page cache is the out-of-core path's only cache, because a heap cache
// in front of the mapping reads slower than the mapping itself. The type
// exists only as a shim for the benchmark module's NewTiered/Stats calls,
// and ROADMAP item 3 deletes it.
type TieredStore struct {
	PiStore              // the base tier; every call but the reads forwards as is
	read    atomic.Int64 // rows read through the tier
}

// TierStats is the plain-value view of the tier traffic: HotHits is always
// 0, and HotMisses counts every row read (the base store serves them all).
type TierStats struct {
	HotHits, HotMisses int64
}

// NewTiered wraps base, which is required; remote must be nil (the tier has
// no remote arm). hotRows must be ≥ 0 and sizes nothing; threads and reg are
// unused. The signature is the benchmark module's.
func NewTiered(base, remote PiStore, hotRows, threads int, reg *obs.Registry) (*TieredStore, error) {
	switch {
	case base == nil:
		return nil, fmt.Errorf("store: tiered store needs a base tier")
	case remote != nil:
		return nil, fmt.Errorf("store: tiered store has no remote tier (got %T)", remote)
	case hotRows < 0:
		return nil, fmt.Errorf("store: tiered store hot rows %d < 0", hotRows)
	}
	return &TieredStore{PiStore: base}, nil
}

// Stats reports the tier traffic: every row read went to the base tier.
func (t *TieredStore) Stats() TierStats { return TierStats{HotMisses: t.read.Load()} }

// ReadRows implements PiStore, counting the rows.
func (t *TieredStore) ReadRows(ids []int32, dst *Rows) error {
	t.read.Add(int64(len(ids)))
	return t.PiStore.ReadRows(ids, dst)
}

// ReadRowsAsync implements PiStore, counting the rows.
func (t *TieredStore) ReadRowsAsync(ids []int32, dst *Rows) (Pending, error) {
	t.read.Add(int64(len(ids)))
	return t.PiStore.ReadRowsAsync(ids, dst)
}

// ReadsAreLocal implements LocalReader: local iff the base tier answers
// locally.
func (t *TieredStore) ReadsAreLocal() bool { return ReadsAreLocal(t.PiStore) }

// WritePiRows implements PiWriter when the base tier does.
func (t *TieredStore) WritePiRows(ids []int32, pi []float32, phiSum []float64) error {
	w, ok := t.PiStore.(PiWriter)
	if !ok {
		return fmt.Errorf("store: tier %T cannot restore verbatim rows", t.PiStore)
	}
	return w.WritePiRows(ids, pi, phiSum)
}

// interface conformance
var (
	_ PiStore     = (*TieredStore)(nil)
	_ LocalReader = (*TieredStore)(nil)
	_ PiWriter    = (*TieredStore)(nil)
)
