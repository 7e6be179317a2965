// Package dkv implements the distributed key-value store of Section III-B:
// the π matrix lives in the collective memory of the cluster, statically
// partitioned by key (vertex id), with fixed-size values and no concurrency
// control — the algorithm's phase structure guarantees that read sets and
// write sets never overlap within a phase.
//
// The paper implements this store directly on InfiniBand RDMA verbs, one
// RDMA read or write per operation. Here the same contract is implemented
// over a transport.Conn: a batch read is one request/response per owning
// rank, a batch write one request/ack. The rows a rank owns are a Partition
// the store is built over; the server answers every peer's request through
// it, and a batch's owned share never touches the wire — the caller reads or
// writes it in place (Read, Write), which reproduces the paper's observation
// that a rank must fetch (C-1)/C of a random batch over the network.
//
// # Failure semantics
//
// The server goroutine exits as soon as its transport is closed or poisoned,
// so a fabric-wide abort drains every rank's server. Misrouted keys (outside
// the serving rank's shard) no longer panic the server: the request is
// answered with a typed error response that surfaces client-side as a
// *KeyRangeError, and any other malformed frame is answered or dropped, never
// obeyed as a stop. When a reply fails to arrive (abort, deadline, closed
// endpoint), the client records its tag in a quarantine set so it can never
// be matched against a later request, then keeps awaiting the remaining
// replies and reports every error it saw (errors.Join).
//
// # Request-id discipline
//
// Response tags are tagRespBase plus a per-peer sequence number modulo
// respWindow (2^22). Tags are demultiplexed per (sender, tag), so two peers
// reusing the same id never collide; a collision would need respWindow
// requests to a single peer to be issued while an old one is still in
// flight. ReadBatch and WriteBatch await every reply they ask for, and
// abandon a tag only by quarantining it, so wraparound is harmless — the
// regression test in failure_test.go pins the 16-bit version of this bug.
package dkv

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Protocol tags. Responses carry the request id in the tag, so a reply is
// matched to its request, never to a stale reply still queued from an
// abandoned one.
const (
	tagRequest  = cluster.TagUserBase + 0x100
	tagRespBase = cluster.TagUserBase + 0x10000
	// respWindow is the per-peer request-id space; ids wrap modulo this.
	// 2^22 tags keep the response range well below transport.TagAbort while
	// making an in-flight collision require four million outstanding
	// requests to one peer.
	respWindow = 1 << 22
)

// Request opcodes.
const (
	opRead  = 1
	opWrite = 2
	opStop  = 3
)

// Response status codes (first uint32 of every response payload).
const (
	respOK        uint32 = 0
	respKeyRange  uint32 = 1
	respMalformed uint32 = 2
)

// reqHeaderBytes is the fixed [op u32][id u32][count u32][send-ns u64]
// request prefix. The send timestamp (obs.TraceNow at request build) lets a
// tracing server split service time into queue wait (send → pickup) versus
// handler + reply time — the clock is process-wide monotonic, so the two
// ends are directly comparable (see internal/obs/span.go).
const reqHeaderBytes = 20

// appendHeader appends the request prefix to b. The timestamp is stamped
// unconditionally — it is one time.Since against the package epoch, and
// stamping it always means a tracing SERVER attributes queue wait correctly
// even when the requesting rank itself has tracing off.
func appendHeader(b []byte, op, id, count uint32) []byte {
	b = wire.AppendUint32(b, op)
	b = wire.AppendUint32(b, id)
	b = wire.AppendUint32(b, count)
	return wire.AppendUint64(b, uint64(obs.TraceNow()))
}

// KeyRangeError is the typed error a DKV server returns when a request
// names a key outside the shard it owns — a misrouted key is a protocol bug
// on the client, and the server must survive it rather than panic.
type KeyRangeError struct {
	Rank int   // serving rank that rejected the request
	Key  int32 // offending key
}

// Error implements error.
func (e *KeyRangeError) Error() string {
	return fmt.Sprintf("dkv: rank %d rejected key %d outside its owned shard", e.Rank, e.Key)
}

// Stats is the traffic a rank generated as a DKV client. The fields are
// handles into the store's telemetry registry (the canonical dkv.* counter
// names of internal/obs), so the same values the engine's event stream and
// monitor endpoint export are readable here without any extra plumbing.
type Stats struct {
	LocalKeys    *obs.Counter // keys served from the rank's own partition
	RemoteKeys   *obs.Counter // keys fetched from or written to peers
	Requests     *obs.Counter // network round trips issued
	BytesRead    *obs.Counter // value bytes received from peers
	BytesWritten *obs.Counter // value bytes sent to peers
}

// newStats registers the client traffic counters in a registry.
func newStats(reg *obs.Registry) *Stats {
	return &Stats{
		LocalKeys:    reg.Counter(obs.CtrDKVLocalKeys),
		RemoteKeys:   reg.Counter(obs.CtrDKVRemoteKeys),
		Requests:     reg.Counter(obs.CtrDKVRequests),
		BytesRead:    reg.Counter(obs.CtrDKVBytesRead),
		BytesWritten: reg.Counter(obs.CtrDKVBytesWritten),
	}
}

// Partition is the rows a rank owns, as the protocol moves them: values
// ValueBytes long in the wire layout, under keys the rank owns. The server
// answers every peer's read and write through it; ReadBatch and WriteBatch
// also hand it their owned share. The server checks ownership before it
// calls in, so every key a Partition sees is its own.
type Partition interface {
	// AppendValues appends the values of keys to dst, in key order.
	AppendValues(dst []byte, keys []int32) ([]byte, error)
	// ApplyValues stores values (ValueBytes per key, in key order) under
	// keys.
	ApplyValues(keys []int32, values []byte) error
}

// Store is one rank's view of the distributed store: its partition plus a
// client for every peer's.
type Store struct {
	conn     transport.Conn
	n        int // total keys
	valBytes int // fixed value size
	per      int // keys per rank (last rank may own fewer)
	lo, hi   int // owned key range [lo, hi)
	part     Partition

	// reqMu guards the per-peer request-id sequences and the quarantine set
	// of tags whose replies were abandoned by a failed exchange.
	reqMu sync.Mutex
	seq   []uint32
	lost  map[uint64]struct{}

	stats   *Stats
	serveWG sync.WaitGroup

	// tracer is atomic because the server goroutine is already running when
	// SetTracer attaches (the store starts serving at New; the engine wires
	// tracing afterwards). Nil while tracing is off.
	tracer atomic.Pointer[obs.Tracer]
}

// SetTracer turns on span emission for both sides of the protocol: client
// response waits (dkv.wait.*, Peer = serving rank) and the server request
// loop (dkv.serve.*, Peer = REQUESTING rank, with queue/handle/reply child
// spans) — the server side is what finally attributes DKV service time to
// the rank that asked for it.
func (s *Store) SetTracer(tr *obs.Tracer) {
	if tr != nil {
		s.tracer.Store(tr)
	}
}

// New creates a store whose partition is a zeroed byte slab, and starts
// this rank's server goroutine. All ranks must call New with identical n and
// valBytes. It is the byte-valued store the benchmark module's DKV probe and
// this package's tests run on; the engine's partition is a store.PiStore
// (store.NewDKV). ROADMAP item 3 deletes it with the benchmark's shims.
func New(conn transport.Conn, n, valBytes int) (*Store, error) {
	// Clamped, so that a bad shape reaches NewPartitioned's refusal.
	lo, hi := Range(max(n, 0), conn.Size(), conn.Rank())
	return NewPartitioned(conn, n, valBytes, nil, &slab{lo: lo, vb: valBytes, data: make([]byte, (hi-lo)*max(valBytes, 0))})
}

// Range returns the keys [lo, hi) that rank owns when n keys are split
// over size ranks: equal contiguous runs, the last rank's possibly shorter.
func Range(n, size, rank int) (lo, hi int) {
	per := (n + size - 1) / size
	lo = min(rank*per, n)
	return lo, min(lo+per, n)
}

// NewPartitioned creates the store over part, this rank's keys
// Range(n, size, rank), then starts the server goroutine, which answers
// peers from it. All ranks must call it with identical n and valBytes. The
// client traffic counters are registered in reg (nil falls back to a
// private registry), so the engine's telemetry layer sees DKV traffic
// without any result-struct plumbing.
func NewPartitioned(conn transport.Conn, n, valBytes int, reg *obs.Registry, part Partition) (*Store, error) {
	if n < 1 {
		return nil, fmt.Errorf("dkv: n = %d, need at least 1", n)
	}
	if valBytes < 1 {
		return nil, fmt.Errorf("dkv: value size %d, need at least 1", valBytes)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	size := conn.Size()
	lo, hi := Range(n, size, conn.Rank())
	s := &Store{
		conn:     conn,
		n:        n,
		valBytes: valBytes,
		per:      (n + size - 1) / size,
		lo:       lo,
		hi:       hi,
		part:     part,
		seq:      make([]uint32, size),
		lost:     make(map[uint64]struct{}),
		stats:    newStats(reg),
	}
	s.serveWG.Add(1)
	go s.serve()
	return s, nil
}

// slab is New's byte-valued Partition: the owned values back to back.
type slab struct {
	lo, vb int
	data   []byte
}

func (p *slab) value(k int32) []byte {
	off := (int(k) - p.lo) * p.vb
	return p.data[off : off+p.vb]
}

func (p *slab) AppendValues(dst []byte, keys []int32) ([]byte, error) {
	for _, k := range keys {
		dst = append(dst, p.value(k)...)
	}
	return dst, nil
}

func (p *slab) ApplyValues(keys []int32, values []byte) error {
	for i, k := range keys {
		copy(p.value(k), values[i*p.vb:])
	}
	return nil
}

// Owner returns the rank owning key k.
func (s *Store) Owner(k int) int { return k / s.per }

// OwnedRange returns this rank's key range [lo, hi).
func (s *Store) OwnedRange() (lo, hi int) { return s.lo, s.hi }

// Stats exposes the client-side traffic counters.
func (s *Store) Stats() *Stats { return s.stats }

// ownsKey reports whether k falls inside this rank's shard.
func (s *Store) ownsKey(k int32) bool { return int(k) >= s.lo && int(k) < s.hi }

// errResp encodes an error response, [status][offending key], into b.
func errResp(b []byte, status uint32, key int32) []byte {
	b = wire.AppendUint32(b[:0], status)
	return wire.AppendUint32(b, uint32(key))
}

// serve answers read and write requests until an opStop message arrives from
// this rank itself, the transport closes, or the fabric is poisoned — the
// latter two drain the server so a dying cluster never leaves the goroutine
// behind. A frame too short to carry a request id, or whose id lies outside
// the response window (its reply tag would leave the response range), is
// dropped: there is no tag to answer it under. Every other frame is
// answered, so a hostile or corrupt request never stops the server or
// strands its sender.
//
// Every reply is built in one buffer the loop owns, which Send lets it reuse
// at once, and every request frame goes back to the transport once its
// spans are emitted.
func (s *Store) serve() {
	defer s.serveWG.Done()
	var sc serveScratch
	for {
		from, req, err := s.conn.RecvAny(tagRequest)
		if err != nil {
			return // transport closed or poisoned
		}
		tr := s.tracer.Load()
		var pickup int64
		if tr != nil {
			pickup = obs.TraceNow()
		}
		if len(req) < reqHeaderBytes {
			transport.Release(req)
			continue
		}
		op := wire.Uint32At(req, 0)
		id := wire.Uint32At(req, 4)
		if id >= respWindow {
			transport.Release(req)
			continue
		}
		if op == opStop && from == s.conn.Rank() {
			return
		}
		resp, span := s.handle(op, req, &sc)
		var handled int64
		if tr != nil {
			handled = obs.TraceNow()
		}
		if err := s.conn.Send(from, tagRespBase+id, resp); err != nil {
			return
		}
		if tr != nil && span != "" {
			sendNS := int64(wire.Uint64At(req, 12))
			s.emitServeSpans(tr, span, from, id, sendNS, pickup, handled, obs.TraceNow())
		}
		transport.Release(req)
	}
}

// serveScratch is the server loop's reusable memory: the decoded keys of the
// request in hand and the reply being built.
type serveScratch struct {
	keys []int32
	resp []byte
}

// handle serves one request frame and returns the reply, built in sc.resp,
// plus the span name of a served request ("" for an error reply). A count
// that overruns the frame or an unknown opcode (a peer's opStop included) is
// answered with respMalformed; a key outside this shard with respKeyRange,
// before anything is applied, so a bad write is all-or-nothing. A partition
// that fails to read or apply is answered respMalformed too: the wire has no
// other failure status.
func (s *Store) handle(op uint32, req []byte, sc *serveScratch) (resp []byte, span string) {
	rec := 4 // bytes per key: the key, plus the value on a write
	switch op {
	case opRead:
	case opWrite:
		rec += s.valBytes
	default:
		sc.resp = errResp(sc.resp, respMalformed, -1)
		return sc.resp, ""
	}
	count := int(wire.Uint32At(req, 8))
	if count > (len(req)-reqHeaderBytes)/rec {
		sc.resp = errResp(sc.resp, respMalformed, -1)
		return sc.resp, ""
	}
	sc.keys = slices.Grow(sc.keys[:0], count)[:count]
	keys := sc.keys
	off := wire.Int32s(req, reqHeaderBytes, count, keys)
	if bad, ok := s.findMisroutedKey(keys); !ok {
		sc.resp = errResp(sc.resp, respKeyRange, bad)
		return sc.resp, ""
	}
	var err error
	resp = wire.AppendUint32(sc.resp[:0], respOK)
	if op == opWrite {
		span = "dkv.serve.write"
		err = s.part.ApplyValues(keys, req[off:off+count*s.valBytes])
	} else {
		span = "dkv.serve.read"
		resp, err = s.part.AppendValues(resp, keys)
	}
	if err != nil {
		resp, span = errResp(resp, respMalformed, -1), ""
	}
	sc.resp = resp
	return resp, span
}

// emitServeSpans records one served request as a parentless root span on the
// DKV server track plus three children splitting where the time went:
//
//	queue  — request send (client clock) to server pickup: backlog wait
//	handle — pickup to response built: partition read / apply
//	reply  — response Send call: wire back-pressure
//
// Every span carries Peer = the REQUESTING rank, so trace viewers and the
// critical-path analyzer attribute this server's busy time to whoever asked.
// A zero or future sendNS (client clock unset or skewed) clamps queue to
// empty rather than fabricating negative time.
func (s *Store) emitServeSpans(tr *obs.Tracer, name string, from int, id uint32, sendNS, pickup, handled, done int64) {
	if sendNS <= 0 || sendNS > pickup {
		sendNS = pickup
	}
	root := tr.NewID()
	tr.Emit(obs.Span{
		ID: root, Name: name, Cat: obs.CatDKVServe,
		Track: obs.TrackDKVServer, Peer: from, Iter: -1, Tag: id,
		StartNS: sendNS, DurNS: done - sendNS,
	})
	tr.Emit(obs.Span{
		ID: tr.NewID(), Parent: root, Name: "queue", Cat: obs.CatDKVServe,
		Track: obs.TrackDKVServer, Peer: from, Iter: -1, Tag: id,
		StartNS: sendNS, DurNS: pickup - sendNS,
	})
	tr.Emit(obs.Span{
		ID: tr.NewID(), Parent: root, Name: "handle", Cat: obs.CatDKVServe,
		Track: obs.TrackDKVServer, Peer: from, Iter: -1, Tag: id,
		StartNS: pickup, DurNS: handled - pickup,
	})
	tr.Emit(obs.Span{
		ID: tr.NewID(), Parent: root, Name: "reply", Cat: obs.CatDKVServe,
		Track: obs.TrackDKVServer, Peer: from, Iter: -1, Tag: id,
		StartNS: handled, DurNS: done - handled,
	})
}

// findMisroutedKey returns (key, false) for the first key outside this
// rank's shard, or (0, true) when every key is owned.
func (s *Store) findMisroutedKey(keys []int32) (int32, bool) {
	for _, k := range keys {
		if !s.ownsKey(k) {
			return k, false
		}
	}
	return 0, true
}

// Close stops the server goroutine. The underlying transport stays open.
func (s *Store) Close() error {
	// A failed send means the transport is already closed or poisoned, and
	// the server loop has exited on that: either way the wait returns.
	_ = s.conn.Send(s.conn.Rank(), tagRequest, appendHeader(nil, opStop, 0, 0))
	s.serveWG.Wait()
	return nil
}

// nextID allocates the next request id for a peer, skipping ids whose
// replies were abandoned by a failed exchange — a quarantined tag may still
// receive its stale response and must never be reused.
func (s *Store) nextID(rank int) uint32 {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	for {
		s.seq[rank] = (s.seq[rank] + 1) % respWindow
		id := s.seq[rank]
		if _, quarantined := s.lost[lostKey(rank, id)]; !quarantined {
			return id
		}
	}
}

// noteLost quarantines a (rank, id) pair whose response may still arrive.
func (s *Store) noteLost(rank int, id uint32) {
	s.reqMu.Lock()
	s.lost[lostKey(rank, id)] = struct{}{}
	s.reqMu.Unlock()
}

func lostKey(rank int, id uint32) uint64 {
	return uint64(rank)<<32 | uint64(id)
}

// decodeResp validates a response's status header and returns its payload.
func decodeResp(rank int, resp []byte, wantBytes int) ([]byte, error) {
	if len(resp) < 4 {
		return nil, fmt.Errorf("dkv: short response (%d bytes) from rank %d", len(resp), rank)
	}
	switch status := wire.Uint32At(resp, 0); status {
	case respOK:
		if len(resp)-4 != wantBytes {
			return nil, fmt.Errorf("dkv: response from rank %d has %d payload bytes, want %d",
				rank, len(resp)-4, wantBytes)
		}
		return resp[4:], nil
	case respKeyRange:
		if len(resp) < 8 {
			return nil, fmt.Errorf("dkv: truncated key-range error from rank %d", rank)
		}
		return nil, &KeyRangeError{Rank: rank, Key: int32(wire.Uint32At(resp, 4))}
	case respMalformed:
		return nil, fmt.Errorf("dkv: rank %d rejected malformed request", rank)
	default:
		return nil, fmt.Errorf("dkv: unknown response status %d from rank %d", status, rank)
	}
}

// Owned is the visitor a batch's owned share goes to, on the calling
// goroutine while the requests to the other owners are in flight: keys[j]
// sits at position pos[j] of the caller's batch. When the rank owns every
// key of the batch, pos is nil and keys is the batch itself, so a caller can
// serve it with no scatter at all.
type Owned func(keys, pos []int32) error

// perRankBatch is one owner's share of a key batch, remembering each key's
// position in the caller's batch so replies scatter back in order; id is the
// request id its reply comes back under.
type perRankBatch struct {
	keys []int32
	pos  []int32
	id   uint32
}

// exchangeScratch is one exchange's working memory. Exchanges may run
// concurrently (the pipelined loader reads while compute writes), so each
// takes its own from exchangePool and a steady-state exchange allocates none.
type exchangeScratch struct {
	counts []int // keys per owner
	groups []perRankBatch
	keys   []int32 // the batch's keys grouped by owner; groups slice it
	pos    []int32 // each grouped key's position in the caller's batch
	req    []byte  // the request being built; Send does not retain it
	sent   []int   // ranks whose request went out, in rank order
}

var exchangePool = sync.Pool{New: func() any { return new(exchangeScratch) }}

// groupByOwner splits a key batch into one group per rank, indexed by rank,
// so requests go out in rank order: it counts each owner's keys, then cuts
// every group from one key array and one position array.
func (s *Store) groupByOwner(keys []int32, sc *exchangeScratch) []perRankBatch {
	size := s.conn.Size()
	counts := slices.Grow(sc.counts[:0], size)[:size]
	clear(counts)
	for _, k := range keys {
		if k < 0 || int(k) >= s.n {
			panic(fmt.Sprintf("dkv: key %d out of range [0,%d)", k, s.n))
		}
		counts[s.Owner(int(k))]++
	}
	sc.keys = slices.Grow(sc.keys[:0], len(keys))[:len(keys)]
	sc.pos = slices.Grow(sc.pos[:0], len(keys))[:len(keys)]
	groups := slices.Grow(sc.groups[:0], size)[:size]
	start := 0
	for r, c := range counts {
		end := start + c
		groups[r] = perRankBatch{keys: sc.keys[start:start:end], pos: sc.pos[start:start:end]}
		start = end
	}
	for i, k := range keys {
		g := &groups[s.Owner(int(k))]
		g.keys = append(g.keys, k)
		g.pos = append(g.pos, int32(i))
	}
	sc.counts, sc.groups = counts, groups
	return groups
}

// Read fetches the values of a key batch: the owned share goes to owned,
// and each peer's share to remote as its reply arrives — value j,
// ValueBytes long, belongs at position pos[j] of the batch — straight from
// the reply frame, which goes back to the transport as soon as remote
// returns. Both run on the calling goroutine and must not keep what they
// are handed past their return.
func (s *Store) Read(keys []int32, owned Owned, remote func(pos []int32, values []byte)) error {
	return s.exchange(opRead, keys, nil, owned, remote)
}

// Write stores a key batch: the owned share goes to owned, and every other
// key's value — ValueBytes at its position in values — is sent to its
// owner. Write waits for every owner's acknowledgement, so that a
// subsequent cluster barrier orders these writes before any later read —
// exactly the write-then-barrier-then-read discipline of the paper's phases.
// The values of owned keys are not read.
func (s *Store) Write(keys []int32, values []byte, owned Owned) error {
	return s.exchange(opWrite, keys, values, owned, nil)
}

// ReadBatch fetches the values of a key batch into dst (len(keys)*ValueBytes
// bytes, in key order): owned keys from the partition, every other owner
// with one request.
func (s *Store) ReadBatch(keys []int32, dst []byte) error {
	vb := s.valBytes
	if len(dst) != len(keys)*vb {
		return fmt.Errorf("dkv: dst has %d bytes, want %d", len(dst), len(keys)*vb)
	}
	scatter := func(pos []int32, values []byte) {
		for j, p := range pos {
			copy(dst[int(p)*vb:int(p+1)*vb], values[j*vb:])
		}
	}
	return s.Read(keys, func(keys, pos []int32) error {
		if pos == nil { // the whole batch: append in place over dst
			_, err := s.part.AppendValues(dst[:0], keys)
			return err
		}
		values, err := s.part.AppendValues(nil, keys)
		if err == nil {
			scatter(pos, values)
		}
		return err
	}, scatter)
}

// WriteBatch stores values (len(keys)*ValueBytes bytes, in key order) under
// their keys: owned keys through the partition, the rest as Write sends
// them.
func (s *Store) WriteBatch(keys []int32, values []byte) error {
	vb := s.valBytes
	if len(values) != len(keys)*vb {
		return fmt.Errorf("dkv: values have %d bytes, want %d", len(values), len(keys)*vb)
	}
	return s.Write(keys, values, func(keys, pos []int32) error {
		if pos == nil {
			return s.part.ApplyValues(keys, values)
		}
		owned := make([]byte, 0, len(pos)*vb)
		for _, p := range pos {
			owned = append(owned, values[int(p)*vb:int(p+1)*vb]...)
		}
		return s.part.ApplyValues(keys, owned)
	})
}

// exchange runs one batched read or write: the keys are grouped by owner,
// each peer gets one request, the owned group goes to owned while the
// requests are in flight, and then every reply is awaited. A batch the rank
// owns entirely goes to owned as it is, with no grouping. A read hands each
// peer's share to remote; a write takes each remote key's value, by its
// position, from values. A failed reply does not strand the others: every
// reply is awaited, the tags of missing ones are quarantined, and every
// error is reported (errors.Join). A failed Send returns at once,
// quarantining the requests already sent.
func (s *Store) exchange(op uint32, keys []int32, values []byte, owned Owned, remote func(pos []int32, values []byte)) error {
	if len(keys) == 0 {
		return nil
	}
	if _, ok := s.findMisroutedKey(keys); ok { // always, at one rank
		s.stats.LocalKeys.Add(int64(len(keys)))
		return owned(keys, nil)
	}
	vb := s.valBytes
	write := op == opWrite
	sc := exchangePool.Get().(*exchangeScratch)
	defer exchangePool.Put(sc)
	groups := s.groupByOwner(keys, sc)
	me := s.conn.Rank()
	sc.sent = sc.sent[:0]
	for rank := range groups {
		g := &groups[rank]
		if rank == me || len(g.keys) == 0 {
			continue
		}
		g.id = s.nextID(rank)
		req := appendHeader(sc.req[:0], op, g.id, uint32(len(g.keys)))
		req = wire.AppendInt32s(req, g.keys)
		if write {
			for _, pos := range g.pos {
				req = append(req, values[int(pos)*vb:(int(pos)+1)*vb]...)
			}
		}
		sc.req = req
		if err := s.conn.Send(rank, tagRequest, req); err != nil {
			// A request that never left cannot be answered; the ones already
			// sent may be, so their tags must never be reused.
			for _, r := range sc.sent {
				s.noteLost(r, groups[r].id)
			}
			return err
		}
		s.stats.RemoteKeys.Add(int64(len(g.keys)))
		s.stats.Requests.Add(1)
		if write {
			s.stats.BytesWritten.Add(int64(len(g.keys) * vb))
		}
		sc.sent = append(sc.sent, rank)
	}
	var errAll error
	if g := &groups[me]; len(g.keys) > 0 {
		errAll = owned(g.keys, g.pos)
		s.stats.LocalKeys.Add(int64(len(g.keys)))
	}
	span, perKey := "dkv.wait.read", vb // reply payload bytes per key
	if write {
		span, perKey = "dkv.wait.ack", 0
	}
	tr := s.tracer.Load()
	for _, rank := range sc.sent {
		g := &groups[rank]
		var waitStart int64
		if tr != nil {
			waitStart = obs.TraceNow()
		}
		resp, err := s.conn.Recv(rank, tagRespBase+g.id)
		if tr != nil {
			// Parent is the tracer's current scope — the engine stage running
			// when the reply landed. A read may run on the pipelined loader
			// goroutine, so this is a best-effort parent; Peer (the serving
			// rank) is what the critical-path walk needs and is exact.
			tr.Emit(obs.Span{
				ID: tr.NewID(), Parent: tr.Scope(), Name: span,
				Cat: obs.CatDKVWait, Track: obs.TrackDKVClient,
				Peer: rank, Iter: tr.Iter(), Tag: g.id,
				StartNS: waitStart, DurNS: obs.TraceNow() - waitStart,
			})
		}
		if err != nil {
			// The reply may still arrive later; make sure its tag can never
			// be matched against a later request.
			s.noteLost(rank, g.id)
			errAll = errors.Join(errAll, err)
			continue
		}
		payload, err := decodeResp(rank, resp, len(g.keys)*perKey)
		switch {
		case err != nil:
			errAll = errors.Join(errAll, err)
		case !write:
			remote(g.pos, payload)
			s.stats.BytesRead.Add(int64(len(payload)))
		}
		transport.Release(resp)
	}
	return errAll
}
