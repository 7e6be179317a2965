package store

// This file holds the eviction machinery behind DKVStore's hot-row cache,
// the only heap row cache: rowCache, a fixed-capacity LRU whose entries
// live in preallocated arenas (one value slab, one node array) linked into a
// circular recency ring by slot index, and doorkeeper, the bounded seen-twice
// admission filter of the "admit2" policy. The out-of-core path has no such
// cache: an MmapStore read is one copy out of the page cache.
//
// Every structure is updated together under DKVStore's lock, and every
// operation — lookup, touch, insert, remove, evict — is O(1) with zero
// steady-state allocation: an evicted row's slab slot is handed directly to
// the incoming one, and removing a written key frees its slot at once, so
// the live cache never shrinks below capacity.

// rowCache is a fixed-capacity LRU over equal-sized rows. Not safe for
// concurrent use; DKVStore serialises access under its mutex.
type rowCache struct {
	rowBytes int
	slab     []byte          // capacity×rowBytes value arena
	nodes    []cacheNode     // one recency-ring node per slot
	index    map[int32]int32 // row id → slot
	head     int32           // MRU slot of the circular ring; -1 when empty
	free     int32           // free-slot list head (chained via next); -1 when full
}

type cacheNode struct {
	id         int32
	prev, next int32
}

// newRowCache allocates the arenas for capRows rows of rowBytes each.
func newRowCache(capRows, rowBytes int) *rowCache {
	c := &rowCache{
		rowBytes: rowBytes,
		slab:     make([]byte, capRows*rowBytes),
		nodes:    make([]cacheNode, capRows),
		index:    make(map[int32]int32, capRows),
		head:     -1,
	}
	c.resetFreeList()
	return c
}

func (c *rowCache) resetFreeList() {
	for i := range c.nodes {
		c.nodes[i].next = int32(i + 1)
	}
	c.nodes[len(c.nodes)-1].next = -1
	c.free = 0
}

// len returns the number of cached rows.
func (c *rowCache) len() int { return len(c.index) }

// val returns slot's row bytes in the slab.
func (c *rowCache) val(slot int32) []byte {
	off := int(slot) * c.rowBytes
	return c.slab[off : off+c.rowBytes]
}

// get returns the cached bytes for id, promoting it to most-recently-used.
// The returned slice aliases the slab and is only valid under the caller's
// lock, before the next cache mutation.
func (c *rowCache) get(id int32) ([]byte, bool) {
	slot, ok := c.index[id]
	if !ok {
		return nil, false
	}
	c.touch(slot)
	return c.val(slot), true
}

// contains reports whether id is cached without touching recency.
func (c *rowCache) contains(id int32) bool {
	_, ok := c.index[id]
	return ok
}

// touch moves slot to the MRU position.
func (c *rowCache) touch(slot int32) {
	if c.head == slot {
		return
	}
	c.unlink(slot)
	c.linkFront(slot)
}

// unlink removes slot from the recency ring.
func (c *rowCache) unlink(slot int32) {
	n := &c.nodes[slot]
	if n.next == slot { // sole element
		c.head = -1
		return
	}
	c.nodes[n.prev].next = n.next
	c.nodes[n.next].prev = n.prev
	if c.head == slot {
		c.head = n.next
	}
}

// linkFront inserts slot at the MRU position of the ring.
func (c *rowCache) linkFront(slot int32) {
	if c.head == -1 {
		c.nodes[slot].prev, c.nodes[slot].next = slot, slot
	} else {
		h := c.head
		tail := c.nodes[h].prev
		c.nodes[slot].prev, c.nodes[slot].next = tail, h
		c.nodes[tail].next = slot
		c.nodes[h].prev = slot
	}
	c.head = slot
}

// put inserts id's row, copying val into the arena and evicting the
// least-recently-used row when full; it reports whether an eviction
// happened. The caller must have checked id is absent.
func (c *rowCache) put(id int32, val []byte) (evicted bool) {
	var slot int32
	if c.free != -1 {
		slot = c.free
		c.free = c.nodes[slot].next
	} else {
		slot = c.nodes[c.head].prev // LRU = tail of the ring
		c.unlink(slot)
		delete(c.index, c.nodes[slot].id)
		evicted = true
	}
	c.nodes[slot].id = id
	copy(c.val(slot), val)
	c.index[id] = slot
	c.linkFront(slot)
	return evicted
}

// remove drops id if present and reports whether it was there; the freed
// slot returns to the free list.
func (c *rowCache) remove(id int32) bool {
	slot, ok := c.index[id]
	if !ok {
		return false
	}
	c.unlink(slot)
	delete(c.index, id)
	c.nodes[slot].next = c.free
	c.free = slot
	return true
}

// clear empties the cache, returning every slot to the free list.
func (c *rowCache) clear() {
	if len(c.index) == 0 {
		return
	}
	clear(c.index)
	c.head = -1
	c.resetFreeList()
}

// ringLen walks the recency ring and counts its nodes — O(n), used only by
// tests to assert that the ring and the index never drift apart (the
// accounting bug the FIFO version had).
func (c *rowCache) ringLen() int {
	if c.head == -1 {
		return 0
	}
	n := 0
	for s := c.head; ; s = c.nodes[s].next {
		n++
		if c.nodes[s].next == c.head {
			break
		}
	}
	return n
}

// doorkeeper is the admission filter of the "admit2" policy: a bounded set
// of row ids seen exactly once. A row is admitted to the cache only on its
// second sighting within the window, so one-shot rows (a vertex sampled
// once and never again) cannot churn hot rows out. The window is a plain
// ring of ids — overwriting the oldest sighting bounds memory without any
// per-access allocation.
type doorkeeper struct {
	ring []int32
	pos  int
	n    int
	seen map[int32]struct{}
}

func newDoorkeeper(window int) *doorkeeper {
	return &doorkeeper{
		ring: make([]int32, window),
		seen: make(map[int32]struct{}, window),
	}
}

// admit reports whether id was already sighted (forgetting the sighting —
// the row is being cached now); a first sighting is recorded and rejected.
func (d *doorkeeper) admit(id int32) bool {
	if _, ok := d.seen[id]; ok {
		delete(d.seen, id)
		return true
	}
	if d.n == len(d.ring) {
		delete(d.seen, d.ring[d.pos]) // no-op if that sighting was consumed
	} else {
		d.n++
	}
	d.ring[d.pos] = id
	d.pos = (d.pos + 1) % len(d.ring)
	d.seen[id] = struct{}{}
	return false
}
