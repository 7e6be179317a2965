package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCP backend: a full mesh of TCP connections between ranks, with the same
// mailbox demultiplexing as the in-process fabric. Frame format on the wire:
//
//	[tag uint32][length uint32][payload ...]
//
// The sender's rank is established once per connection during the handshake,
// so frames do not repeat it.

// maxFrame bounds a single message; a π batch for K=16384 and 4096 rows is
// ~268 MB, so the limit is generous but still catches corrupt frames. The
// reader never allocates a frame's claimed length up front (see readBody).
const maxFrame = 1 << 30

// readBufBytes sizes each peer connection's read buffer: a frame up to this
// size, header included, usually costs one read syscall instead of two.
const readBufBytes = 64 << 10

// meshSetupTimeout bounds DialMesh: dial retries and the accept loop both
// give up after this long, so a dead peer yields an error instead of a hang.
const meshSetupTimeout = 30 * time.Second

// dialRetry dials addr until it succeeds or the mesh setup deadline passes.
// The backoff starts at 10ms — a booting peer needs time to bind its
// listener, and hammering it at millisecond cadence only fills its backlog —
// and doubles up to 100ms. The error names the peer address, the attempt
// count, and the elapsed time against the deadline, so a dead peer is
// diagnosable from the failing rank's log alone.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	start := time.Now()
	delay := 10 * time.Millisecond
	attempts := 0
	for {
		attempts++
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("transport: dial %s: %d attempt(s) over %v (mesh setup deadline %v elapsed): %w",
				addr, attempts, time.Since(start).Round(time.Millisecond),
				meshSetupTimeout, err)
		}
		// Never sleep past the deadline: the final attempt should happen at
		// the deadline, not an exponential-backoff step after it.
		if remaining := time.Until(deadline); delay > remaining {
			delay = remaining
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

// PeerLostError fails every receive on a TCP endpoint whose connection to a
// peer ended other than by the endpoint's own Close: a frame header over the
// size limit, EOF in the middle of a frame, or the peer closing its side.
// No frame from that peer can arrive any more, so a receive waiting for one
// fails now instead of blocking forever.
type PeerLostError struct {
	Peer int   // the rank whose connection was lost
	Err  error // why the read loop stopped
}

// Error implements error.
func (e *PeerLostError) Error() string {
	return fmt.Sprintf("transport: connection to rank %d lost: %v", e.Peer, e.Err)
}

// Unwrap exposes the read failure.
func (e *PeerLostError) Unwrap() error { return e.Err }

// TCPConn is one rank's endpoint in a TCP mesh.
type TCPConn struct {
	rank    int
	size    int
	box     *mailbox
	peers   []net.Conn // peers[r] is the connection to rank r (nil for self)
	sendM   []sync.Mutex
	out     []frameOut // out[r] is the write scratch for peers[r], under sendM[r]
	wg      sync.WaitGroup
	once    sync.Once
	closing atomic.Bool // set by Close: read loops ending after it are expected
}

// DialLoopbackMesh builds a fully-connected TCP mesh of `ranks` endpoints on
// 127.0.0.1, all in this process: it holds an ephemeral listener per rank
// until every address is reserved (so the ports are distinct), releases
// them, then runs DialMesh for every rank concurrently — each dial blocks on
// its peer's accept. The cleanup func closes every endpoint.
func DialLoopbackMesh(ranks int) ([]Conn, func(), error) {
	addrs := make([]string, ranks)
	listeners := make([]net.Listener, ranks)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, held := range listeners[:i] {
				held.Close()
			}
			return nil, nil, fmt.Errorf("transport: reserving loopback port: %w", err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	conns := make([]Conn, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if c, err := DialMesh(r, addrs); err != nil {
				errs[r] = fmt.Errorf("mesh rank %d: %w", r, err)
			} else {
				conns[r] = c
			}
		}(r)
	}
	wg.Wait()
	cleanup := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		cleanup()
		return nil, nil, err
	}
	return conns, cleanup, nil
}

// DialMesh establishes a full mesh between `size` ranks. addrs[r] is the
// listen address of rank r (for example "127.0.0.1:9000"). Every rank calls
// DialMesh with the same address list and its own rank; the call returns
// once all pairwise connections are up.
//
// Connection direction: rank i dials rank j for i > j; the lower rank
// accepts. The handshake is the dialer's rank as a uint32.
func DialMesh(rank int, addrs []string) (*TCPConn, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("transport: rank %d out of range [0,%d)", rank, size)
	}
	c := &TCPConn{
		rank:  rank,
		size:  size,
		box:   newMailbox(),
		peers: make([]net.Conn, size),
		sendM: make([]sync.Mutex, size),
		out:   make([]frameOut, size),
	}

	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[rank], err)
	}
	defer ln.Close()
	// Bound the whole mesh setup: if a peer died, fail instead of hanging.
	// Dial retries and the accept loop share one deadline.
	deadline := time.Now().Add(meshSetupTimeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}

	// Accept connections from all higher ranks.
	accepted := make(chan error, 1)
	expect := size - rank - 1
	go func() {
		for i := 0; i < expect; i++ {
			conn, err := ln.Accept()
			if err != nil {
				accepted <- err
				return
			}
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				accepted <- fmt.Errorf("transport: handshake read: %w", err)
				return
			}
			peer := int(binary.LittleEndian.Uint32(hdr[:]))
			if peer <= rank || peer >= size {
				accepted <- fmt.Errorf("transport: bad handshake rank %d", peer)
				return
			}
			c.peers[peer] = conn
		}
		accepted <- nil
	}()

	// Dial all lower ranks, retrying while their listeners come up — ranks
	// start concurrently, so early dials routinely beat the peer's Listen.
	for peer := 0; peer < rank; peer++ {
		conn, err := dialRetry(addrs[peer], deadline)
		if err != nil {
			return nil, fmt.Errorf("transport: dial rank %d: %w", peer, err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(rank))
		if _, err := conn.Write(hdr[:]); err != nil {
			return nil, fmt.Errorf("transport: handshake write: %w", err)
		}
		c.peers[peer] = conn
	}
	if err := <-accepted; err != nil {
		return nil, err
	}

	// Start one reader per peer.
	for peer, conn := range c.peers {
		if conn == nil {
			continue
		}
		c.wg.Add(1)
		go c.readLoop(peer, conn)
	}
	return c, nil
}

// readLoop delivers one peer's frames until the connection ends. Unless this
// endpoint is closing, that end poisons the mailbox with a *PeerLostError.
func (c *TCPConn) readLoop(peer int, conn net.Conn) {
	defer c.wg.Done()
	if err := c.readFrames(peer, conn); !c.closing.Load() {
		c.box.poison(&PeerLostError{Peer: peer, Err: err})
	}
}

func (c *TCPConn) readFrames(peer int, conn net.Conn) error {
	r := bufio.NewReaderSize(conn, readBufBytes)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err // io.EOF: the peer closed between frames
		}
		tag := binary.LittleEndian.Uint32(hdr[0:4])
		length := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxFrame {
			return fmt.Errorf("frame header claims %d bytes, over the %d-byte limit", length, maxFrame)
		}
		payload, err := readBody(r, int(length))
		if err != nil {
			return fmt.Errorf("reading a %d-byte frame: %w", length, err)
		}
		if tag == TagAbort {
			// Abort control frame: the payload is the poisoning rank's
			// rendered cause. Poison the local mailbox so every blocked
			// receive fails, then keep reading (Close still drains us).
			c.box.poison(&AbortError{Rank: peer, Msg: string(payload)})
			Release(payload)
			continue
		}
		if err := c.box.put(peer, tag, payload); err != nil {
			return err
		}
	}
}

// frameOut is one peer connection's write scratch: the frame header and the
// two-element vector that hands header and payload to the kernel together.
type frameOut struct {
	hdr  [8]byte
	vec  [2][]byte
	bufs net.Buffers
}

// writeFrame sends one framed message to a peer, serialising writers per
// connection. Header and payload go out in one writev, and the payload is
// not referenced once writeFrame returns.
func (c *TCPConn) writeFrame(to int, tag uint32, payload []byte) error {
	c.sendM[to].Lock()
	defer c.sendM[to].Unlock()
	conn := c.peers[to]
	if conn == nil {
		return ErrClosed
	}
	o := &c.out[to]
	binary.LittleEndian.PutUint32(o.hdr[0:4], tag)
	binary.LittleEndian.PutUint32(o.hdr[4:8], uint32(len(payload)))
	o.vec = [2][]byte{o.hdr[:], payload}
	o.bufs = o.vec[:]
	_, err := o.bufs.WriteTo(conn)
	o.vec, o.bufs = [2][]byte{}, nil
	return err
}

// Rank implements Conn.
func (c *TCPConn) Rank() int { return c.rank }

// Size implements Conn.
func (c *TCPConn) Size() int { return c.size }

// Send implements Conn.
func (c *TCPConn) Send(to int, tag uint32, payload []byte) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("transport: send to rank %d out of range [0,%d)", to, c.size)
	}
	if tag == TagAbort {
		return fmt.Errorf("transport: tag %#x is reserved for the abort protocol", tag)
	}
	if to == c.rank {
		// Self-delivery skips the wire; clone so the receiver owns its
		// slice, matching the remote path's serialisation copy.
		return c.box.put(c.rank, tag, clonePayload(payload))
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: payload %d exceeds frame limit", len(payload))
	}
	return c.writeFrame(to, tag, payload)
}

// SetDeadline implements Conn; it bounds receives on this rank's mailbox.
func (c *TCPConn) SetDeadline(t time.Time) error {
	c.box.setDeadline(t)
	return nil
}

// Poison implements Conn: an abort control frame is sent to every peer
// (best effort — a dead peer's frame is dropped, which is fine because a
// dead peer is not blocked on us) and the local mailbox is poisoned with
// the full cause.
func (c *TCPConn) Poison(cause error) {
	msg := []byte(cause.Error())
	for to := range c.peers {
		if to == c.rank {
			continue
		}
		_ = c.writeFrame(to, TagAbort, msg)
	}
	c.box.poison(&AbortError{Rank: c.rank, Msg: cause.Error(), Cause: cause})
}

// Recv implements Conn.
func (c *TCPConn) Recv(from int, tag uint32) ([]byte, error) {
	if from < 0 || from >= c.size {
		return nil, fmt.Errorf("transport: recv from rank %d out of range [0,%d)", from, c.size)
	}
	return c.box.get(from, tag)
}

// RecvAny implements Conn.
func (c *TCPConn) RecvAny(tag uint32) (int, []byte, error) {
	return c.box.getAny(tag)
}

// Close implements Conn.
func (c *TCPConn) Close() error {
	c.once.Do(func() {
		c.closing.Store(true)
		for i := range c.peers {
			c.sendM[i].Lock()
			if conn := c.peers[i]; conn != nil {
				conn.Close()
				c.peers[i] = nil
			}
			c.sendM[i].Unlock()
		}
		c.box.close()
	})
	c.wg.Wait()
	return nil
}
