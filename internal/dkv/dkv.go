// Package dkv implements the distributed key-value store of Section III-B:
// the π matrix lives in the collective memory of the cluster, statically
// partitioned by key (vertex id), with fixed-size values and no concurrency
// control — the algorithm's phase structure guarantees that read sets and
// write sets never overlap within a phase.
//
// The paper implements this store directly on InfiniBand RDMA verbs, one
// RDMA read or write per operation. Here the same contract is implemented
// over a transport.Conn: a batch read is one request/response per owning
// rank, a batch write one request/ack. Local keys short-circuit to memory,
// which reproduces the paper's observation that a rank must fetch (C-1)/C of
// a random batch over the network.
//
// # Failure semantics
//
// The server goroutine exits as soon as its transport is closed or poisoned,
// so a fabric-wide abort drains every rank's server. Misrouted keys (outside
// the serving rank's shard) no longer panic the server: the request is
// answered with a typed error response that surfaces client-side as a
// *KeyRangeError. When a Future's receive fails (abort, deadline, closed
// endpoint), Wait records the response tags that may still arrive in a
// quarantine set so they can never be matched against a later request, then
// keeps draining the remaining pending responses and reports every error it
// saw (errors.Join).
//
// # Request-id discipline
//
// Response tags are tagRespBase plus a per-peer sequence number modulo
// respWindow (2^22). Tags are demultiplexed per (sender, tag), so two peers
// reusing the same id never collide; a collision would need respWindow
// requests to a single peer to be issued while an old one is still in
// flight. The engine keeps at most a handful of futures outstanding and
// every Future must eventually be waited (ReadBatchAsync's contract), so
// wraparound is harmless — the regression test in failure_test.go pins the
// 16-bit version of this bug.
package dkv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Protocol tags. Responses carry the request id in the tag so a client can
// keep several asynchronous reads in flight (the double-buffered pipeline
// does exactly that).
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

// appendHeader builds the request prefix. The timestamp is stamped
// unconditionally — it is one time.Since against the package epoch, and
// stamping it always means a tracing SERVER attributes queue wait correctly
// even when the requesting rank itself has tracing off.
func appendHeader(op, id, count uint32) []byte {
	b := wire.AppendUint32(make([]byte, 0, reqHeaderBytes), op)
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
	LocalKeys    *obs.Counter // keys served from the local shard
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

// Store is one rank's view of the distributed store: its local shard plus a
// client for every peer's shard.
type Store struct {
	conn     transport.Conn
	n        int // total keys
	valBytes int // fixed value size
	per      int // keys per rank (last rank may own fewer)
	lo, hi   int // owned key range [lo, hi)
	shard    []byte

	// reqMu guards the per-peer request-id sequences and the quarantine set
	// of tags whose responses were abandoned by a failed Wait.
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

// New creates the store and starts this rank's server goroutine. All ranks
// must call New with identical n and valBytes. The initial shard content is
// zero; populate it with WriteLocal before the first Barrier. Traffic
// counters land in a private registry; use NewWithRegistry to share the
// run's registry.
func New(conn transport.Conn, n, valBytes int) (*Store, error) {
	return NewWithRegistry(conn, n, valBytes, nil)
}

// NewWithRegistry is New with the client traffic counters registered in reg
// (nil falls back to a private registry), so the engine's telemetry layer
// sees DKV traffic without any result-struct plumbing.
func NewWithRegistry(conn transport.Conn, n, valBytes int, reg *obs.Registry) (*Store, error) {
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
	per := (n + size - 1) / size
	lo := conn.Rank() * per
	hi := lo + per
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	s := &Store{
		conn:     conn,
		n:        n,
		valBytes: valBytes,
		per:      per,
		lo:       lo,
		hi:       hi,
		shard:    make([]byte, (hi-lo)*valBytes),
		seq:      make([]uint32, size),
		lost:     make(map[uint64]struct{}),
		stats:    newStats(reg),
	}
	s.serveWG.Add(1)
	go s.serve()
	return s, nil
}

// Owner returns the rank owning key k.
func (s *Store) Owner(k int) int { return k / s.per }

// OwnedRange returns this rank's key range [lo, hi).
func (s *Store) OwnedRange() (lo, hi int) { return s.lo, s.hi }

// Stats exposes the client-side traffic counters.
func (s *Store) Stats() *Stats { return s.stats }

// localValue returns the storage slice for an owned key.
func (s *Store) localValue(k int) []byte {
	off := (k - s.lo) * s.valBytes
	return s.shard[off : off+s.valBytes]
}

// ownsKey reports whether k falls inside this rank's shard.
func (s *Store) ownsKey(k int32) bool { return int(k) >= s.lo && int(k) < s.hi }

// WriteLocal stores a value for an owned key without any messaging; used for
// initial population. It panics on non-owned keys.
func (s *Store) WriteLocal(k int, val []byte) {
	if k < s.lo || k >= s.hi {
		panic(fmt.Sprintf("dkv: WriteLocal key %d outside owned range [%d,%d)", k, s.lo, s.hi))
	}
	if len(val) != s.valBytes {
		panic(fmt.Sprintf("dkv: value size %d, want %d", len(val), s.valBytes))
	}
	copy(s.localValue(k), val)
}

// ReadLocal copies an owned key's value into dst; used by tests.
func (s *Store) ReadLocal(k int, dst []byte) {
	if k < s.lo || k >= s.hi {
		panic(fmt.Sprintf("dkv: ReadLocal key %d outside owned range [%d,%d)", k, s.lo, s.hi))
	}
	copy(dst, s.localValue(k))
}

// errResp encodes an error response: [status][offending key].
func errResp(status uint32, key int32) []byte {
	b := wire.AppendUint32(nil, status)
	return wire.AppendUint32(b, uint32(key))
}

// serve answers read and write requests until an opStop message arrives from
// this rank itself, the transport closes, or the fabric is poisoned — the
// latter two drain the server so a dying cluster never leaves the goroutine
// behind.
func (s *Store) serve() {
	defer s.serveWG.Done()
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
			// No request id to respond under; drop the frame.
			continue
		}
		op := wire.Uint32At(req, 0)
		id := wire.Uint32At(req, 4)
		count := int(wire.Uint32At(req, 8))
		sendNS := int64(wire.Uint64At(req, 12))
		switch op {
		case opStop:
			return
		case opRead:
			if count < 0 || len(req) < reqHeaderBytes+4*count {
				if err := s.conn.Send(from, tagRespBase+id, errResp(respMalformed, -1)); err != nil {
					return
				}
				continue
			}
			keys := make([]int32, count)
			wire.Int32s(req, reqHeaderBytes, count, keys)
			if bad, ok := s.findMisroutedKey(keys); !ok {
				if err := s.conn.Send(from, tagRespBase+id, errResp(respKeyRange, bad)); err != nil {
					return
				}
				continue
			}
			resp := make([]byte, 4+count*s.valBytes)
			// status respOK is the zero value; values start at offset 4.
			for i, k := range keys {
				copy(resp[4+i*s.valBytes:], s.localValue(int(k)))
			}
			var handled int64
			if tr != nil {
				handled = obs.TraceNow()
			}
			if err := s.conn.Send(from, tagRespBase+id, resp); err != nil {
				return
			}
			if tr != nil {
				s.emitServeSpans(tr, "dkv.serve.read", from, id, sendNS, pickup, handled, obs.TraceNow())
			}
		case opWrite:
			if count < 0 || len(req) < reqHeaderBytes+count*(4+s.valBytes) {
				if err := s.conn.Send(from, tagRespBase+id, errResp(respMalformed, -1)); err != nil {
					return
				}
				continue
			}
			keys := make([]int32, count)
			off := wire.Int32s(req, reqHeaderBytes, count, keys)
			// Validate before applying so a bad batch is all-or-nothing.
			if bad, ok := s.findMisroutedKey(keys); !ok {
				if err := s.conn.Send(from, tagRespBase+id, errResp(respKeyRange, bad)); err != nil {
					return
				}
				continue
			}
			for i, k := range keys {
				copy(s.localValue(int(k)), req[off+i*s.valBytes:off+(i+1)*s.valBytes])
			}
			var handled int64
			if tr != nil {
				handled = obs.TraceNow()
			}
			if err := s.conn.Send(from, tagRespBase+id, wire.AppendUint32(nil, respOK)); err != nil {
				return
			}
			if tr != nil {
				s.emitServeSpans(tr, "dkv.serve.write", from, id, sendNS, pickup, handled, obs.TraceNow())
			}
		}
	}
}

// emitServeSpans records one served request as a parentless root span on the
// DKV server track plus three children splitting where the time went:
//
//	queue  — request send (client clock) to server pickup: backlog wait
//	handle — pickup to response built: shard copy / apply
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
	_ = s.conn.Send(s.conn.Rank(), tagRequest, appendHeader(opStop, 0, 0))
	s.serveWG.Wait()
	return nil
}

// nextID allocates the next request id for a peer, skipping ids whose
// responses were abandoned by a failed Wait — a quarantined tag may still
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

// perRankBatch groups a key batch by owning rank, remembering each key's
// position in the caller's batch so responses scatter back in order.
type perRankBatch struct {
	keys []int32
	pos  []int
}

func (s *Store) groupByOwner(keys []int32) map[int]*perRankBatch {
	groups := make(map[int]*perRankBatch)
	for i, k := range keys {
		if k < 0 || int(k) >= s.n {
			panic(fmt.Sprintf("dkv: key %d out of range [0,%d)", k, s.n))
		}
		o := s.Owner(int(k))
		g := groups[o]
		if g == nil {
			g = &perRankBatch{}
			groups[o] = g
		}
		g.keys = append(g.keys, k)
		g.pos = append(g.pos, i)
	}
	return groups
}

// Future represents an in-flight asynchronous batch read.
type Future struct {
	store   *Store
	dst     []byte
	pending []pendingResp
	err     error
	done    bool
}

type pendingResp struct {
	rank int
	id   uint32
	g    *perRankBatch
}

// Wait blocks until every response has arrived and been scattered into the
// destination buffer. It is idempotent. On failure it still attempts every
// remaining pending response — so one slow error does not strand the others
// in the transport queues — quarantines the tags of responses that never
// came, and returns every distinct error it observed (errors.Join).
func (f *Future) Wait() error {
	if f.done {
		return f.err
	}
	f.done = true
	tr := f.store.tracer.Load()
	for _, p := range f.pending {
		var waitStart int64
		if tr != nil {
			waitStart = obs.TraceNow()
		}
		resp, err := f.store.conn.Recv(p.rank, tagRespBase+p.id)
		if tr != nil {
			// Parent is the tracer's current scope — the engine stage running
			// when the response landed. Wait may run on the pipelined loader
			// goroutine, so this is a best-effort parent; Peer (the serving
			// rank) is what the critical-path walk needs and is exact.
			tr.Emit(obs.Span{
				ID: tr.NewID(), Parent: tr.Scope(), Name: "dkv.wait.read",
				Cat: obs.CatDKVWait, Track: obs.TrackDKVClient,
				Peer: p.rank, Iter: tr.Iter(), Tag: p.id,
				StartNS: waitStart, DurNS: obs.TraceNow() - waitStart,
			})
		}
		if err != nil {
			// The response may still arrive later; make sure its tag can
			// never be matched against a future request.
			f.store.noteLost(p.rank, p.id)
			f.err = errors.Join(f.err, err)
			continue
		}
		vb := f.store.valBytes
		payload, err := decodeResp(p.rank, resp, len(p.g.keys)*vb)
		if err != nil {
			f.err = errors.Join(f.err, err)
			continue
		}
		for i, pos := range p.g.pos {
			copy(f.dst[pos*vb:(pos+1)*vb], payload[i*vb:(i+1)*vb])
		}
		f.store.stats.BytesRead.Add(int64(len(payload)))
	}
	return f.err
}

// ReadBatchAsync issues the reads for a key batch and returns a Future; the
// local portion is served immediately. dst must have len(keys)*ValueBytes
// bytes and must stay untouched until Wait returns. Every Future must
// eventually be waited, even after an error — Wait is what keeps the
// response tag space clean. This is the prefetch primitive behind the
// paper's double-buffered pipeline.
func (s *Store) ReadBatchAsync(keys []int32, dst []byte) (*Future, error) {
	if len(dst) != len(keys)*s.valBytes {
		return nil, fmt.Errorf("dkv: dst has %d bytes, want %d", len(dst), len(keys)*s.valBytes)
	}
	f := &Future{store: s, dst: dst}
	for rank, g := range s.groupByOwner(keys) {
		if rank == s.conn.Rank() {
			for i, k := range g.keys {
				copy(dst[g.pos[i]*s.valBytes:], s.localValue(int(k)))
			}
			s.stats.LocalKeys.Add(int64(len(g.keys)))
			continue
		}
		id := s.nextID(rank)
		req := appendHeader(opRead, id, uint32(len(g.keys)))
		req = wire.AppendInt32s(req, g.keys)
		if err := s.conn.Send(rank, tagRequest, req); err != nil {
			// Sends that never left cannot produce responses; only the
			// already-issued pendings need draining, which Wait does.
			f.err = err
			f.done = true
			for _, p := range f.pending {
				s.noteLost(p.rank, p.id)
			}
			return nil, err
		}
		s.stats.RemoteKeys.Add(int64(len(g.keys)))
		s.stats.Requests.Add(1)
		f.pending = append(f.pending, pendingResp{rank: rank, id: id, g: g})
	}
	return f, nil
}

// ReadBatch is the synchronous form of ReadBatchAsync.
func (s *Store) ReadBatch(keys []int32, dst []byte) error {
	f, err := s.ReadBatchAsync(keys, dst)
	if err != nil {
		return err
	}
	return f.Wait()
}

// WriteBatch stores values (len(keys)*ValueBytes bytes, in key order) under
// their keys and waits for every owner's acknowledgement, so that a
// subsequent cluster barrier orders these writes before any later read —
// exactly the write-then-barrier-then-read discipline of the paper's phases.
// Like Future.Wait, a failed acknowledgement does not strand the others:
// every ack is awaited, missing ones are quarantined, and all errors are
// reported.
func (s *Store) WriteBatch(keys []int32, values []byte) error {
	if len(values) != len(keys)*s.valBytes {
		return fmt.Errorf("dkv: values have %d bytes, want %d", len(values), len(keys)*s.valBytes)
	}
	type ack struct {
		rank int
		id   uint32
	}
	var acks []ack
	for rank, g := range s.groupByOwner(keys) {
		if rank == s.conn.Rank() {
			for i, k := range g.keys {
				copy(s.localValue(int(k)), values[g.pos[i]*s.valBytes:(g.pos[i]+1)*s.valBytes])
			}
			s.stats.LocalKeys.Add(int64(len(g.keys)))
			continue
		}
		id := s.nextID(rank)
		req := appendHeader(opWrite, id, uint32(len(g.keys)))
		req = wire.AppendInt32s(req, g.keys)
		for _, pos := range g.pos {
			req = append(req, values[pos*s.valBytes:(pos+1)*s.valBytes]...)
		}
		if err := s.conn.Send(rank, tagRequest, req); err != nil {
			for _, a := range acks {
				s.noteLost(a.rank, a.id)
			}
			return err
		}
		s.stats.RemoteKeys.Add(int64(len(g.keys)))
		s.stats.Requests.Add(1)
		s.stats.BytesWritten.Add(int64(len(g.keys) * s.valBytes))
		acks = append(acks, ack{rank, id})
	}
	var errAll error
	tr := s.tracer.Load()
	for _, a := range acks {
		var waitStart int64
		if tr != nil {
			waitStart = obs.TraceNow()
		}
		resp, err := s.conn.Recv(a.rank, tagRespBase+a.id)
		if tr != nil {
			tr.Emit(obs.Span{
				ID: tr.NewID(), Parent: tr.Scope(), Name: "dkv.wait.ack",
				Cat: obs.CatDKVWait, Track: obs.TrackDKVClient,
				Peer: a.rank, Iter: tr.Iter(), Tag: a.id,
				StartNS: waitStart, DurNS: obs.TraceNow() - waitStart,
			})
		}
		if err != nil {
			s.noteLost(a.rank, a.id)
			errAll = errors.Join(errAll, err)
			continue
		}
		if _, err := decodeResp(a.rank, resp, 0); err != nil {
			errAll = errors.Join(errAll, err)
		}
	}
	return errAll
}
