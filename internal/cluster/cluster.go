// Package cluster provides the MPI-style collectives the distributed engine
// is written against: Barrier, Bcast, Scatter, Gather, Reduce and AllReduce
// over any transport.Conn. The algorithms are flat (root-centric), which is
// the right trade for the ≤ 65-rank clusters of the paper and keeps the
// reduction order deterministic — partial results are always folded in rank
// order, so a distributed sum equals the sequential sum of the same parts.
//
// # Abort protocol
//
// The paper's collectives assume every rank stays healthy; ours do not. A
// rank that hits an unrecoverable error calls Comm.Abort, which broadcasts
// an abort control message on the transport's reserved tag and poisons the
// fabric. Every collective a peer is blocked in — Barrier, Bcast, Scatter,
// Gather, Reduce — then returns an error wrapping *transport.AbortError
// (check with transport.AsAbort) that names the failing rank and its cause,
// instead of blocking forever on a message that will never come. Aborting is
// one-way: a poisoned communicator stays dead, which is the right semantics
// for SG-MCMC — the caller restarts the run from a checkpoint rather than
// patching a half-finished iteration.
package cluster

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Tag layout: collectives consume the low tag space with a per-communicator
// sequence number; the DKV store and application messages live above
// TagUserBase. Because every rank issues collectives in the same program
// order, sequence numbers alone disambiguate concurrent operations.
const (
	tagCollectiveMask = 0x3fffffff
	// TagUserBase is the first tag value available to application protocols.
	TagUserBase uint32 = 0x40000000
)

// Comm is a communicator: a Conn plus collective sequencing.
type Comm struct {
	conn    transport.Conn
	labeler transport.PhaseLabeler // conn's phase hook, nil if uninstrumented
	tracer  *obs.Tracer            // span emission, nil when tracing is off
	seq     uint32
}

// New wraps a transport endpoint in a communicator.
func New(conn transport.Conn) *Comm {
	c := &Comm{conn: conn}
	c.labeler, _ = conn.(transport.PhaseLabeler)
	return c
}

// SetPhase labels the engine phase whose collectives run next, so an
// instrumented transport can attribute blocking-receive time to it
// (transport.wait.<phase> histograms) — the tag→phase half of straggler
// localisation. Every rank issues collectives in the same program order, so
// the label set at each stage boundary covers exactly that stage's tags. A
// no-op on uninstrumented transports.
func (c *Comm) SetPhase(name string) {
	if c.labeler != nil {
		c.labeler.SetPhase(name)
	}
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.conn.Rank() }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.conn.Size() }

// Conn exposes the underlying transport for application protocols (DKV).
func (c *Comm) Conn() transport.Conn { return c.conn }

func (c *Comm) nextTag() uint32 {
	c.seq++
	return c.seq & tagCollectiveMask
}

// SetTracer turns on span emission: each collective becomes a span under the
// engine's current scope (the running stage), and every blocking receive
// inside it becomes a child span naming the sender — the raw material of the
// critical-path walk. Like SetPhase, collectives are issued from a single
// goroutine per rank, so no synchronisation is needed around the field.
func (c *Comm) SetTracer(tr *obs.Tracer) { c.tracer = tr }

// beginOp opens a collective span and makes it the tracer scope, returning
// the closure that closes both; nil when tracing is off, so call sites stay
// a one-line guard: if end := c.beginOp(...); end != nil { defer end() }.
func (c *Comm) beginOp(name string, tag uint32) func() {
	tr := c.tracer
	if tr == nil {
		return nil
	}
	id := tr.NewID()
	parent := tr.SetScope(id)
	start := tr.Now()
	return func() {
		tr.Emit(obs.Span{
			ID: id, Parent: parent, Name: name, Cat: obs.CatCollective,
			Track: obs.TrackEngine, Peer: obs.NoPeer, Iter: tr.Iter(), Tag: tag,
			StartNS: start, DurNS: tr.Now() - start,
		})
		tr.SetScope(parent)
	}
}

// recv is conn.Recv plus a CatRecv span naming the sender — the blocked
// interval the critical-path analyzer follows from waiter to waited-on.
func (c *Comm) recv(from int, tag uint32) ([]byte, error) {
	tr := c.tracer
	if tr == nil {
		return c.conn.Recv(from, tag)
	}
	start := tr.Now()
	got, err := c.conn.Recv(from, tag)
	tr.Emit(obs.Span{
		ID: tr.NewID(), Parent: tr.Scope(), Name: "recv", Cat: obs.CatRecv,
		Track: obs.TrackEngine, Peer: from, Iter: tr.Iter(), Tag: tag,
		StartNS: start, DurNS: tr.Now() - start,
	})
	return got, err
}

// Abort declares this rank failed: the cause is broadcast on the reserved
// abort tag and the fabric is poisoned, so every peer blocked in (or later
// entering) a collective or receive returns a *transport.AbortError naming
// this rank within bounded time instead of deadlocking. Safe to call multiple
// times; the first abort to reach each endpoint wins.
func (c *Comm) Abort(cause error) {
	c.conn.Poison(cause)
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error {
	tag := c.nextTag()
	if end := c.beginOp("barrier", tag); end != nil {
		defer end()
	}
	if c.Rank() == 0 {
		for r := 1; r < c.Size(); r++ {
			if _, err := c.recv(r, tag); err != nil {
				return fmt.Errorf("cluster: barrier gather: %w", err)
			}
		}
		for r := 1; r < c.Size(); r++ {
			if err := c.conn.Send(r, tag, nil); err != nil {
				return fmt.Errorf("cluster: barrier release: %w", err)
			}
		}
		return nil
	}
	if err := c.conn.Send(0, tag, nil); err != nil {
		return fmt.Errorf("cluster: barrier enter: %w", err)
	}
	if _, err := c.recv(0, tag); err != nil {
		return fmt.Errorf("cluster: barrier wait: %w", err)
	}
	return nil
}

// Bcast distributes root's data to every rank and returns it. Non-root
// callers pass nil. The same data slice is handed to every Send — safe
// because the transport's ownership contract guarantees each receiver gets
// a private copy (see the transport package docs); receivers may mutate
// their result freely.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	tag := c.nextTag()
	if end := c.beginOp("bcast", tag); end != nil {
		defer end()
	}
	if c.Rank() == root {
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.conn.Send(r, tag, data); err != nil {
				return nil, fmt.Errorf("cluster: bcast to %d: %w", r, err)
			}
		}
		return data, nil
	}
	got, err := c.recv(root, tag)
	if err != nil {
		return nil, fmt.Errorf("cluster: bcast recv: %w", err)
	}
	return got, nil
}

// Gather collects each rank's data at root. At root the result has Size
// entries indexed by rank (root's own entry is its argument, unsent); other
// ranks get nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	tag := c.nextTag()
	if end := c.beginOp("gather", tag); end != nil {
		defer end()
	}
	if c.Rank() == root {
		out := make([][]byte, c.Size())
		out[root] = data
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			got, err := c.recv(r, tag)
			if err != nil {
				return nil, fmt.Errorf("cluster: gather from %d: %w", r, err)
			}
			out[r] = got
		}
		return out, nil
	}
	if err := c.conn.Send(root, tag, data); err != nil {
		return nil, fmt.Errorf("cluster: gather send: %w", err)
	}
	return nil, nil
}

// AllGather collects every rank's variable-length payload at every rank:
// the result has Size entries indexed by rank and is identical everywhere
// (this rank's own entry is its argument, byte for byte). It is built from
// the same root-centric tag protocol as the other collectives — a Gather at
// rank 0 followed by a Bcast of the length-framed concatenation — so it
// inherits their abort semantics and their deterministic rank ordering.
// Empty contributions are legal and come back as empty slices; the store's
// cross-iteration write-set exchange leans on that (most barriers follow a
// read-only phase).
func (c *Comm) AllGather(data []byte) ([][]byte, error) {
	parts, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	var frame []byte
	if c.Rank() == 0 {
		n := 4
		for _, p := range parts {
			n += 4 + len(p)
		}
		frame = wire.AppendUint32(make([]byte, 0, n), uint32(len(parts)))
		for _, p := range parts {
			frame = wire.AppendUint32(frame, uint32(len(p)))
			frame = append(frame, p...)
		}
	}
	frame, err = c.Bcast(0, frame)
	if err != nil {
		return nil, err
	}
	if len(frame) < 4 {
		return nil, fmt.Errorf("cluster: allgather frame truncated (%d bytes)", len(frame))
	}
	count := int(wire.Uint32At(frame, 0))
	if count != c.Size() {
		return nil, fmt.Errorf("cluster: allgather frame carries %d parts for %d ranks", count, c.Size())
	}
	out := make([][]byte, count)
	off := 4
	for r := 0; r < count; r++ {
		if off+4 > len(frame) {
			return nil, fmt.Errorf("cluster: allgather frame truncated at part %d", r)
		}
		ln := int(wire.Uint32At(frame, off))
		off += 4
		if ln < 0 || off+ln > len(frame) {
			return nil, fmt.Errorf("cluster: allgather part %d overruns the frame", r)
		}
		out[r] = frame[off : off+ln : off+ln]
		off += ln
	}
	return out, nil
}

// Scatter distributes parts[r] to rank r from root and returns this rank's
// part. Non-root callers pass nil. len(parts) must equal Size at root.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	tag := c.nextTag()
	if end := c.beginOp("scatter", tag); end != nil {
		defer end()
	}
	if c.Rank() == root {
		if len(parts) != c.Size() {
			return nil, fmt.Errorf("cluster: scatter with %d parts for %d ranks", len(parts), c.Size())
		}
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			if err := c.conn.Send(r, tag, parts[r]); err != nil {
				return nil, fmt.Errorf("cluster: scatter to %d: %w", r, err)
			}
		}
		return parts[root], nil
	}
	got, err := c.recv(root, tag)
	if err != nil {
		return nil, fmt.Errorf("cluster: scatter recv: %w", err)
	}
	return got, nil
}

// ReduceSum element-wise sums each rank's vec at root (folding in rank
// order) and returns the total there; other ranks get nil. All ranks must
// pass vectors of identical length.
func (c *Comm) ReduceSum(root int, vec []float64) ([]float64, error) {
	payload := wire.AppendFloat64s(make([]byte, 0, 8*len(vec)), vec)
	parts, err := c.Gather(root, payload)
	if err != nil {
		return nil, err
	}
	if c.Rank() != root {
		return nil, nil
	}
	total := make([]float64, len(vec))
	tmp := make([]float64, len(vec))
	for r, p := range parts {
		if len(p) != 8*len(vec) {
			return nil, fmt.Errorf("cluster: reduce part from rank %d has %d bytes, want %d", r, len(p), 8*len(vec))
		}
		wire.Float64s(p, 0, len(vec), tmp)
		for i, v := range tmp {
			total[i] += v
		}
	}
	return total, nil
}

// AllReduceSum is ReduceSum at rank 0 followed by a broadcast; every rank
// receives the identical total (bit-identical, since the fold happens once).
func (c *Comm) AllReduceSum(vec []float64) ([]float64, error) {
	total, err := c.ReduceSum(0, vec)
	if err != nil {
		return nil, err
	}
	var payload []byte
	if c.Rank() == 0 {
		payload = wire.AppendFloat64s(make([]byte, 0, 8*len(vec)), total)
	}
	payload, err = c.Bcast(0, payload)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vec))
	wire.Float64s(payload, 0, len(vec), out)
	return out, nil
}
