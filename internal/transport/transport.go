// Package transport provides the message-passing fabric underneath the
// MPI-style collectives (internal/cluster) and the distributed key-value
// store (internal/dkv). Two interchangeable backends exist: an in-process
// fabric built on shared mailboxes (the default for the simulated-cluster
// experiments) and a TCP mesh for genuinely multi-process runs.
//
// The interface is deliberately minimal — tagged point-to-point messages with
// blocking receives — because that is all the algorithm's phase structure
// needs; everything else (barriers, reductions, one-sided reads) is layered
// on top.
//
// # Failure semantics
//
// The paper's system assumes a healthy cluster; this fabric does not. Three
// mechanisms bound the time any rank can stay blocked once something goes
// wrong:
//
//   - Close releases an endpoint: in-flight receives return ErrClosed.
//   - SetDeadline bounds individual receives: past the deadline they return
//     ErrDeadlineExceeded instead of blocking.
//   - Poison aborts the whole fabric from one rank: a control message on the
//     reserved TagAbort wakes every blocked receive on every rank with a
//     typed *AbortError naming the poisoning rank and its cause. This is the
//     primitive the cluster-level abort protocol is built on.
//
// # Buffer ownership
//
// Send never retains the payload: the in-proc fabric copies it before Send
// returns, the TCP mesh writes it to the socket before Send returns, and a
// wrapper (FaultConn, Instrument) only delays or counts the call. The
// contract is therefore:
//
//   - A sender may reuse, rewrite or re-send the slice as soon as Send
//     returns (cluster.Bcast sends one buffer to every rank; the DKV server
//     builds every reply in one buffer), but must not write to it
//     concurrently with the Send call itself.
//   - A receiver exclusively owns the slice Recv/RecvAny returns and may
//     modify it freely; it never aliases the sender's buffer or another
//     receiver's.
//   - A receiver may hand a payload back with Release once it holds no
//     reference to it, and the next receive may reuse its memory. Received
//     payloads are drawn from size-classed frame pools; one never released is
//     garbage collected as usual. Under the race detector Release scribbles
//     over the frame, so a use after release shows as corrupt data.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrDeadlineExceeded is returned by Recv/RecvAny once the endpoint's
// receive deadline (SetDeadline) has passed.
var ErrDeadlineExceeded = errors.New("transport: receive deadline exceeded")

// TagAbort is the reserved tag carrying abort control messages between
// ranks. Application protocols must keep their tags below it; Send rejects
// it explicitly.
const TagAbort = ^uint32(0)

// AbortError is the error delivered to every blocked or future receive on a
// poisoned endpoint. Rank is the rank that called Poison. Cause is the
// original error on ranks sharing the poisoner's address space (the in-proc
// fabric, and the poisoning rank itself on TCP); on remote TCP ranks only
// Msg — the rendered cause — crosses the wire and Cause is nil.
type AbortError struct {
	Rank  int
	Msg   string
	Cause error
}

// Error implements error.
func (e *AbortError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("transport: aborted by rank %d: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("transport: aborted by rank %d: %s", e.Rank, e.Msg)
}

// Unwrap exposes the cause (nil for remote TCP aborts).
func (e *AbortError) Unwrap() error { return e.Cause }

// AsAbort reports whether err wraps an *AbortError and returns it.
func AsAbort(err error) (*AbortError, bool) {
	var ae *AbortError
	if errors.As(err, &ae) {
		return ae, true
	}
	return nil, false
}

// Conn is one rank's endpoint into the fabric.
type Conn interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the fabric.
	Size() int
	// Send delivers payload to rank `to` under the given tag. The receiver
	// gets a private copy and Send never retains payload (see the
	// package-level buffer-ownership contract), so the sender may reuse,
	// rewrite or re-send the slice as soon as Send returns.
	// Sending to self is allowed. The tag must be below TagAbort.
	Send(to int, tag uint32, payload []byte) error
	// Recv blocks until a message from rank `from` with the given tag is
	// available and returns its payload, which the caller exclusively owns
	// and may hand back with Release.
	Recv(from int, tag uint32) ([]byte, error)
	// RecvAny blocks until a message with the given tag arrives from any
	// rank and returns the sender and payload.
	RecvAny(tag uint32) (from int, payload []byte, err error)
	// SetDeadline bounds all current and future blocking receives: past t
	// they return ErrDeadlineExceeded. The zero time clears the deadline.
	// Sends are unaffected (they do not block on the fabric).
	SetDeadline(t time.Time) error
	// Poison aborts the fabric with the given cause: every blocked and
	// future Recv/RecvAny on every rank returns an *AbortError naming this
	// rank, locally immediately and remotely as soon as the abort control
	// message arrives. Poison is asynchronous and best-effort towards peers
	// (a dead peer cannot be woken, but cannot block others either) and is
	// safe to call more than once — the first cause wins on each endpoint.
	Poison(cause error)
	// Close releases the endpoint. In-flight Recv calls return ErrClosed.
	Close() error
}

// mailKey identifies a (sender, tag) queue within a mailbox.
type mailKey struct {
	from int
	tag  uint32
}

// mailbox is a tag/sender-demultiplexed message queue shared by the inproc
// and TCP backends.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[mailKey][][]byte
	// anyOrder preserves global arrival order per tag for RecvAny.
	anyOrder map[uint32][]mailKey
	closed   bool
	// cause, once set by poison, fails every receive (checked before queued
	// data so an abort surfaces in bounded time even under heavy traffic).
	cause error
	// deadline bounds blocking receives; timer wakes waiters when it fires.
	deadline time.Time
	timer    *time.Timer
}

func newMailbox() *mailbox {
	m := &mailbox{
		queues:   make(map[mailKey][][]byte),
		anyOrder: make(map[uint32][]mailKey),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(from int, tag uint32, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cause != nil {
		return m.cause
	}
	if m.closed {
		return ErrClosed
	}
	k := mailKey{from, tag}
	m.queues[k] = append(m.queues[k], payload)
	m.anyOrder[tag] = append(m.anyOrder[tag], k)
	m.cond.Broadcast()
	return nil
}

// expired reports whether the receive deadline has passed; caller holds mu.
func (m *mailbox) expired() bool {
	return !m.deadline.IsZero() && !time.Now().Before(m.deadline)
}

func (m *mailbox) get(from int, tag uint32) ([]byte, error) {
	k := mailKey{from, tag}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.cause != nil {
			return nil, m.cause
		}
		if q := m.queues[k]; len(q) > 0 {
			msg := q[0]
			m.popQueue(k, q)
			m.removeFromAnyOrder(k, tag)
			return msg, nil
		}
		if m.closed {
			return nil, ErrClosed
		}
		if m.expired() {
			return nil, ErrDeadlineExceeded
		}
		m.cond.Wait()
	}
}

// popQueue removes the head of queue k, releasing the payload reference and
// deleting drained queues entirely. Collective tags are never reused, so a
// retained empty slice (whose backing array still pins the last payload)
// would leak every message ever delivered — megabytes per iteration in the
// engine.
func (m *mailbox) popQueue(k mailKey, q [][]byte) {
	q[0] = nil
	q = q[1:]
	if len(q) == 0 {
		delete(m.queues, k)
		return
	}
	m.queues[k] = q
}

func (m *mailbox) getAny(tag uint32) (int, []byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.cause != nil {
			return 0, nil, m.cause
		}
		if order := m.anyOrder[tag]; len(order) > 0 {
			k := order[0]
			if len(order) == 1 {
				delete(m.anyOrder, tag)
			} else {
				m.anyOrder[tag] = order[1:]
			}
			q := m.queues[k]
			msg := q[0]
			m.popQueue(k, q)
			return k.from, msg, nil
		}
		if m.closed {
			return 0, nil, ErrClosed
		}
		if m.expired() {
			return 0, nil, ErrDeadlineExceeded
		}
		m.cond.Wait()
	}
}

// removeFromAnyOrder drops the oldest anyOrder entry matching k; called with
// the lock held after a targeted get consumed a message.
func (m *mailbox) removeFromAnyOrder(k mailKey, tag uint32) {
	order := m.anyOrder[tag]
	for i, e := range order {
		if e == k {
			order = append(order[:i], order[i+1:]...)
			if len(order) == 0 {
				delete(m.anyOrder, tag)
			} else {
				m.anyOrder[tag] = order
			}
			return
		}
	}
}

// poison installs the abort cause and wakes every waiter. The first cause
// wins; later poisons (including echoes of our own abort) are no-ops.
func (m *mailbox) poison(cause error) {
	m.mu.Lock()
	if m.cause == nil {
		m.cause = cause
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}

// setDeadline installs (or clears, with the zero time) the receive deadline
// and arms a timer so waiters re-evaluate when it fires.
func (m *mailbox) setDeadline(t time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deadline = t
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
	if !t.IsZero() {
		if d := time.Until(t); d > 0 {
			m.timer = time.AfterFunc(d, func() {
				m.mu.Lock()
				m.cond.Broadcast()
				m.mu.Unlock()
			})
		}
	}
	// Wake waiters so an already-passed (or cleared) deadline takes effect
	// immediately.
	m.cond.Broadcast()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
	m.cond.Broadcast()
	m.mu.Unlock()
}
