package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// waitErr runs fn in a goroutine and returns its error, failing the test if
// fn is still blocked after the timeout — the property every failure test
// here is really about.
func waitErr(t *testing.T, what string, timeout time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		t.Fatalf("%s still blocked after %v", what, timeout)
		return nil
	}
}

// TestPoisonWakesBlockedReceivers: Poison on one rank must release every
// peer blocked in Recv/RecvAny with an AbortError naming the poisoner —
// the primitive the engine's no-deadlock guarantee rests on.
func TestPoisonWakesBlockedReceivers(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 3)
			recvDone := make(chan error, 1)
			anyDone := make(chan error, 1)
			go func() {
				_, err := conns[0].Recv(2, 77)
				recvDone <- err
			}()
			go func() {
				_, _, err := conns[2].RecvAny(78)
				anyDone <- err
			}()
			time.Sleep(20 * time.Millisecond) // let both receivers block
			cause := errors.New("injected failure")
			conns[1].Poison(cause)
			for i, ch := range []chan error{recvDone, anyDone} {
				select {
				case err := <-ch:
					ae, ok := AsAbort(err)
					if !ok {
						t.Fatalf("receiver %d: error %v is not an AbortError", i, err)
					}
					if ae.Rank != 1 {
						t.Fatalf("receiver %d: abort names rank %d, want 1", i, ae.Rank)
					}
					if ae.Msg != cause.Error() {
						t.Fatalf("receiver %d: abort message %q, want %q", i, ae.Msg, cause.Error())
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("receiver %d still blocked after Poison", i)
				}
			}
			// The poisoning rank's own receives fail too, with the cause
			// preserved for unwrapping.
			err := waitErr(t, "poisoner recv", 5*time.Second, func() error {
				_, err := conns[1].Recv(0, 79)
				return err
			})
			if !errors.Is(err, cause) && name == "inproc" {
				t.Fatalf("poisoner recv error %v does not wrap the cause", err)
			}
			if ae, ok := AsAbort(err); !ok || ae.Rank != 1 {
				t.Fatalf("poisoner recv error %v is not its own AbortError", err)
			}
		})
	}
}

// TestPoisonFailsLaterReceivesAndSends: poisoning is sticky — operations
// issued after the abort fail immediately rather than blocking.
func TestPoisonFailsLaterReceivesAndSends(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 2)
			conns[0].Poison(errors.New("boom"))
			err := waitErr(t, "recv after poison", 2*time.Second, func() error {
				_, err := conns[1].Recv(0, 5)
				return err
			})
			if _, ok := AsAbort(err); !ok {
				t.Fatalf("recv after poison: %v, want AbortError", err)
			}
			// A queued message does not mask the abort: delivery to a
			// poisoned inbox fails, and receives surface the abort first.
			if err := conns[1].Send(0, 6, []byte("x")); err == nil && name == "inproc" {
				t.Fatal("send into poisoned inbox succeeded")
			}
		})
	}
}

// TestSetDeadline: a blocked receive must return ErrDeadlineExceeded once
// the deadline passes, and clearing the deadline restores normal blocking.
func TestSetDeadline(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 2)
			if err := conns[0].SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			err := waitErr(t, "recv with deadline", 5*time.Second, func() error {
				_, err := conns[0].Recv(1, 11)
				return err
			})
			if !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("recv error %v, want ErrDeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("deadline took %v to fire", elapsed)
			}
			// An expired deadline also fails RecvAny.
			err = waitErr(t, "recvany with deadline", 5*time.Second, func() error {
				_, _, err := conns[0].RecvAny(12)
				return err
			})
			if !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("recvany error %v, want ErrDeadlineExceeded", err)
			}
			// Clearing the deadline makes the endpoint usable again.
			if err := conns[0].SetDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			if err := conns[1].Send(0, 13, []byte("late")); err != nil {
				t.Fatal(err)
			}
			m, err := conns[0].Recv(1, 13)
			if err != nil || string(m) != "late" {
				t.Fatalf("recv after clearing deadline: %q, %v", m, err)
			}
		})
	}
}

// TestDeadlineDoesNotDropQueuedMessages: a message that is already queued
// is still delivered even if the deadline has passed — deadlines bound
// waiting, not data.
func TestDeadlineDoesNotDropQueuedMessages(t *testing.T) {
	f, err := NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, b := f.Endpoint(0), f.Endpoint(1)
	if err := a.Send(1, 3, []byte("queued")); err != nil {
		t.Fatal(err)
	}
	b.SetDeadline(time.Now().Add(-time.Second))
	m, err := b.Recv(0, 3)
	if err != nil || string(m) != "queued" {
		t.Fatalf("queued message after deadline: %q, %v", m, err)
	}
	// With the queue drained, the expired deadline now applies.
	if _, err := b.Recv(0, 3); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("drained recv error %v, want ErrDeadlineExceeded", err)
	}
}

// TestSendDoesNotAliasBuffers enforces the ownership contract: sending one
// buffer to several ranks (exactly what cluster.Bcast does) must deliver
// private copies — a receiver mutating its slice must not corrupt the
// sender's buffer or a sibling receiver's copy.
func TestSendDoesNotAliasBuffers(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 3)
			data := []byte("shared broadcast payload")
			orig := append([]byte(nil), data...)
			for to := 1; to < 3; to++ {
				if err := conns[0].Send(to, 21, data); err != nil {
					t.Fatal(err)
				}
			}
			m1, err := conns[1].Recv(0, 21)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := conns[2].Recv(0, 21)
			if err != nil {
				t.Fatal(err)
			}
			for i := range m1 {
				m1[i] = 'X' // receiver 1 scribbles over its copy
			}
			if string(m2) != string(orig) {
				t.Fatalf("receiver 2's buffer corrupted by receiver 1: %q", m2)
			}
			if string(data) != string(orig) {
				t.Fatalf("sender's buffer corrupted by receiver 1: %q", data)
			}
			// Self-delivery must not alias either.
			if err := conns[0].Send(0, 22, data); err != nil {
				t.Fatal(err)
			}
			self, err := conns[0].Recv(0, 22)
			if err != nil {
				t.Fatal(err)
			}
			self[0] = 'Y'
			if string(data) != string(orig) {
				t.Fatalf("sender's buffer aliases self-delivered message: %q", data)
			}
		})
	}
}

// TestAbortTagReserved: application sends on the abort control tag must be
// rejected, or a user message could poison the whole fabric.
func TestAbortTagReserved(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 2)
			if err := conns[0].Send(1, TagAbort, []byte("nope")); err == nil {
				t.Fatal("send on TagAbort accepted")
			}
		})
	}
}

// TestFaultConnDropDelayFail exercises the injection wrapper the failure
// suites build on.
func TestFaultConnDropDelayFail(t *testing.T) {
	f, err := NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var dropped atomic.Int32
	fc := &FaultConn{
		Conn: f.Endpoint(0),
		DropSend: func(to int, tag uint32) bool {
			if tag == 100 {
				dropped.Add(1)
				return true
			}
			return false
		},
		FailSend: func(to int, tag uint32) error {
			if tag == 101 {
				return errors.New("injected send failure")
			}
			return nil
		},
	}

	// Dropped: the message never arrives; a deadline proves it.
	if err := fc.Send(1, 100, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if dropped.Load() != 1 {
		t.Fatalf("drop hook fired %d times, want 1", dropped.Load())
	}
	recv := f.Endpoint(1)
	recv.SetDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := recv.Recv(0, 100); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("dropped message was delivered (err=%v)", err)
	}
	recv.SetDeadline(time.Time{})

	// Failed: the configured error surfaces to the caller.
	if err := fc.Send(1, 101, []byte("x")); err == nil {
		t.Fatal("FailSend error not surfaced")
	}

	// Passthrough: untargeted tags flow normally.
	if err := fc.Send(1, 102, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if m, err := recv.Recv(0, 102); err != nil || string(m) != "ok" {
		t.Fatalf("passthrough message: %q, %v", m, err)
	}
}

// TestTCPPeerLossFailsRecv: a peer connection that ends under a blocked
// Recv — a corrupt oversize header, EOF in the middle of a frame, or the
// peer half-closing — fails that Recv within 1 s with a *PeerLostError
// naming the peer, instead of leaving it blocked with no deadline set.
func TestTCPPeerLossFailsRecv(t *testing.T) {
	for name, act := range map[string]func(net.Conn){
		"oversize header": func(raw net.Conn) {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 5)
			binary.LittleEndian.PutUint32(hdr[4:8], maxFrame+1)
			raw.Write(hdr[:])
		},
		"eof mid-frame": func(raw net.Conn) {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], 5)
			binary.LittleEndian.PutUint32(hdr[4:8], 100)
			raw.Write(append(hdr[:], make([]byte, 50)...))
			raw.Close()
		},
		"half-close": func(raw net.Conn) { raw.(*net.TCPConn).CloseWrite() },
	} {
		t.Run(name, func(t *testing.T) {
			c, raw := dialRawPeer(t)
			go func() {
				time.Sleep(20 * time.Millisecond) // let Recv block first
				act(raw)
			}()
			err := waitErr(t, "recv from the lost peer", time.Second+20*time.Millisecond, func() error {
				_, err := c.Recv(1, 5)
				return err
			})
			var lost *PeerLostError
			if !errors.As(err, &lost) || lost.Peer != 1 {
				t.Fatalf("recv error %v, want a *PeerLostError naming rank 1", err)
			}
		})
	}
}

// dialRawPeer starts rank 0 of a 2-rank TCP mesh and plays rank 1 over a raw
// socket: it dials, completes the handshake, and hands the socket over.
func dialRawPeer(t *testing.T) (*TCPConn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	type result struct {
		c   *TCPConn
		err error
	}
	mesh := make(chan result, 1)
	go func() {
		c, err := DialMesh(0, []string{addr, "127.0.0.1:0"})
		mesh <- result{c, err}
	}()
	raw, err := dialRetry(addr, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	var hs [4]byte
	binary.LittleEndian.PutUint32(hs[:], 1)
	if _, err := raw.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	r := <-mesh
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { r.c.Close() })
	return r.c, raw
}
