package dkv

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// pair2 builds the standard two-rank fixture: 10 keys, 4-byte values, so
// rank 0 owns [0,5) and rank 1 owns [5,10).
func pair2(t *testing.T) (*transport.Fabric, *Store, *Store) {
	t.Helper()
	f, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	s0, err := New(f.Endpoint(0), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(f.Endpoint(1), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s0.Close(); s1.Close() })
	return f, s0, s1
}

// TestRequestIDWraparoundRegression pins the 16-bit request-id bug: the old
// protocol allocated ids as reqID.Add(1) & 0xffff from one global counter,
// so after 65,536 requests the tag of an abandoned request was reused and
// its stale queued reply was silently matched to the new request — state
// corruption, not an error. The test plants that stale reply (value 1,1,1,1
// under request id 1's tag) and advances the sequence counter to 0x10000,
// the value after 2^16 requests; under the old masking the next id collides
// with id 1, under the per-peer 22-bit window it does not, and the read must
// observe the freshly written value.
func TestRequestIDWraparoundRegression(t *testing.T) {
	f, s0, s1 := pair2(t)
	stale := wire.AppendUint32(nil, respOK)
	stale = append(stale, 1, 1, 1, 1)
	if err := f.Endpoint(1).Send(0, tagRespBase+1, stale); err != nil {
		t.Fatal(err)
	}

	// Fast-forward the id sequence to where it stands after 2^16 requests.
	// (Old code equivalent: reqID.Store(0x10000) — the next allocated id,
	// 0x10001 & 0xffff, equals the abandoned request's id 1.)
	s0.reqMu.Lock()
	s0.seq[1] = 0x10000
	s0.reqMu.Unlock()

	s1.WriteLocal(9, []byte{2, 2, 2, 2})
	got := make([]byte, 4)
	if err := s0.ReadBatch([]int32{9}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{2, 2, 2, 2}) {
		t.Fatalf("read after id wraparound returned stale response %v, want [2 2 2 2]", got)
	}
}

// TestMisroutedKeyReturnsTypedError: a request naming a key outside the
// serving rank's shard must produce a typed error response, not panic the
// server goroutine (which previously took down the whole process).
func TestMisroutedKeyReturnsTypedError(t *testing.T) {
	f, s0, s1 := pair2(t)
	s1.WriteLocal(9, []byte{7, 7, 7, 7})
	conn0 := f.Endpoint(0)

	// Key 2 is owned by rank 0; route it to rank 1 anyway (a client-side
	// routing bug this rank must survive).
	req := appendHeader(nil, opRead, 99, 1)
	req = wire.AppendInt32s(req, []int32{2})
	if err := conn0.Send(1, tagRequest, req); err != nil {
		t.Fatal(err)
	}
	resp, err := conn0.Recv(1, tagRespBase+99)
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeResp(1, resp, 4)
	var kre *KeyRangeError
	if !errors.As(err, &kre) {
		t.Fatalf("misrouted read returned %v, want KeyRangeError", err)
	}
	if kre.Rank != 1 || kre.Key != 2 {
		t.Fatalf("KeyRangeError = rank %d key %d, want rank 1 key 2", kre.Rank, kre.Key)
	}

	// A misrouted write must be rejected all-or-nothing as well.
	req = appendHeader(nil, opWrite, 100, 2)
	req = wire.AppendInt32s(req, []int32{9, 2}) // 9 owned, 2 misrouted
	req = append(req, 8, 8, 8, 8, 9, 9, 9, 9)
	if err := conn0.Send(1, tagRequest, req); err != nil {
		t.Fatal(err)
	}
	resp, err = conn0.Recv(1, tagRespBase+100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = decodeResp(1, resp, 0); !errors.As(err, &kre) {
		t.Fatalf("misrouted write returned %v, want KeyRangeError", err)
	}

	// The server survived both and still serves; the rejected write left
	// the owned key untouched.
	got := make([]byte, 4)
	if err := s0.ReadBatch([]int32{9}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{7, 7, 7, 7}) {
		t.Fatalf("key 9 = %v after rejected write, want [7 7 7 7]", got)
	}
}

// TestMalformedRequestReturnsError: a frame whose count field overruns the
// payload must be answered with an error response, not crash the server.
func TestMalformedRequestReturnsError(t *testing.T) {
	f, s0, _ := pair2(t)
	conn0 := f.Endpoint(0)
	req := appendHeader(nil, opRead, 5, 1000) // claims 1000 keys, carries none
	if err := conn0.Send(1, tagRequest, req); err != nil {
		t.Fatal(err)
	}
	resp, err := conn0.Recv(1, tagRespBase+5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResp(1, resp, 0); err == nil {
		t.Fatal("malformed request was acknowledged as OK")
	}
	// Server still alive.
	if err := s0.ReadBatch([]int32{9}, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestWaitDrainsAndQuarantinesOnError: when one reply never arrives, a
// batched read must (a) still deliver the replies that did arrive, (b)
// report the failure, and (c) quarantine the missing tag so it can never be
// matched to a later request.
func TestWaitDrainsAndQuarantinesOnError(t *testing.T) {
	f, err := transport.NewFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Rank 0's client drops every request it sends to rank 1, so rank 1
	// never responds; rank 2 responds normally.
	fc := &transport.FaultConn{
		Conn:     f.Endpoint(0),
		DropSend: func(to int, tag uint32) bool { return to == 1 && tag == tagRequest },
	}
	// 12 keys over 3 ranks: rank r owns [4r, 4r+4).
	s0, err := New(fc, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(f.Endpoint(1), 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(f.Endpoint(2), 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s0.Close(); s1.Close(); s2.Close() }()
	s2.WriteLocal(8, []byte{42, 42, 42, 42})

	// Key 5 → rank 1 (request dropped), key 8 → rank 2 (healthy).
	dst := make([]byte, 8)
	// Bound the wait: rank 1's response will never come.
	fc.SetDeadline(time.Now().Add(250 * time.Millisecond))
	werr := s0.ReadBatch([]int32{5, 8}, dst)
	fc.SetDeadline(time.Time{})
	if !errors.Is(werr, transport.ErrDeadlineExceeded) {
		t.Fatalf("ReadBatch error = %v, want to include ErrDeadlineExceeded", werr)
	}
	// The healthy rank's response was still scattered into dst.
	if !bytes.Equal(dst[4:], []byte{42, 42, 42, 42}) {
		t.Fatalf("healthy response not delivered: dst = %v", dst)
	}
	// The missing tag is quarantined and id allocation skips it.
	s0.reqMu.Lock()
	nLost := len(s0.lost)
	s0.reqMu.Unlock()
	if nLost != 1 {
		t.Fatalf("%d quarantined tags, want 1", nLost)
	}
	s0.reqMu.Lock()
	s0.seq[1] = 0 // rewind so the next allocation would land on the lost id
	s0.reqMu.Unlock()
	if id := s0.nextID(1); id != 2 {
		t.Fatalf("nextID reused quarantined id: got %d, want 2", id)
	}
}

// hostileFrame is a request frame a peer can put on the wire that the
// server must survive; reply reports whether it must be answered.
type hostileFrame struct {
	name  string
	frame []byte
	reply bool
}

// hostileFrames returns the frames that once stopped a rank's server or
// stranded their sender: a request id whose reply tag would be
// transport.TagAbort (Send refuses it), an opStop from a peer rather than
// the rank itself, and an unknown opcode.
func hostileFrames() []hostileFrame {
	read := appendHeader(nil, opRead, transport.TagAbort-tagRespBase, 1)
	return []hostileFrame{
		{"id past window", wire.AppendInt32s(read, []int32{9}), false},
		{"peer opStop", appendHeader(nil, opStop, 7, 0), true},
		{"unknown opcode", appendHeader(nil, 9, 8, 0), true},
	}
}

// TestServerSurvivesHostileFrames: after each hostile frame reaches rank 1's
// server, a frame that deserves a reply gets respMalformed, and rank 1 keeps
// serving — a read of one of its keys succeeds within 500 ms.
func TestServerSurvivesHostileFrames(t *testing.T) {
	for _, h := range hostileFrames() {
		t.Run(h.name, func(t *testing.T) {
			f, s0, s1 := pair2(t)
			s1.WriteLocal(9, []byte{7, 7, 7, 7})
			conn0 := f.Endpoint(0)
			conn0.SetDeadline(time.Now().Add(500 * time.Millisecond))
			if err := conn0.Send(1, tagRequest, h.frame); err != nil {
				t.Fatal(err)
			}
			if h.reply {
				resp, err := conn0.Recv(1, tagRespBase+wire.Uint32At(h.frame, 4))
				if err != nil {
					t.Fatalf("no reply: %v", err)
				}
				if _, err := decodeResp(1, resp, 0); err == nil {
					t.Fatal("hostile frame was acknowledged as OK")
				}
			}
			got := make([]byte, 4)
			if err := s0.ReadBatch([]int32{9}, got); err != nil {
				t.Fatalf("server stopped serving: %v", err)
			}
			if !bytes.Equal(got, []byte{7, 7, 7, 7}) {
				t.Fatalf("key 9 = %v, want [7 7 7 7]", got)
			}
		})
	}
}

// FuzzDKVRequest sends one arbitrary frame to rank 1's server, then checks
// that the server still serves: a write and a read of one rank-1 key return
// the written bytes within a second. Rank 0 quarantines the frame's request
// id first, so the server's reply to it can never be taken for the reply to
// the checking requests.
func FuzzDKVRequest(f *testing.F) {
	f.Add(wire.AppendInt32s(appendHeader(nil, opRead, 3, 2), []int32{5, 9}))
	f.Add(append(wire.AppendInt32s(appendHeader(nil, opWrite, 4, 1), []int32{7}), 1, 2, 3, 4))
	for _, h := range hostileFrames() {
		f.Add(h.frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		fab, s0, _ := pair2(t)
		if len(frame) >= 8 {
			s0.noteLost(1, wire.Uint32At(frame, 4))
		}
		conn0 := fab.Endpoint(0)
		if err := conn0.Send(1, tagRequest, frame); err != nil {
			t.Fatal(err)
		}
		conn0.SetDeadline(time.Now().Add(time.Second))
		want := []byte{0xa5, 1, 2, 3}
		if err := s0.WriteBatch([]int32{6}, want); err != nil {
			t.Fatalf("write after frame %x: %v", frame, err)
		}
		got := make([]byte, 4)
		if err := s0.ReadBatch([]int32{6}, got); err != nil {
			t.Fatalf("read after frame %x: %v", frame, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("after frame %x: key 6 = %v, want %v", frame, got, want)
		}
	})
}

// TestServerDrainsOnPoison: a fabric-wide abort must terminate the server
// goroutine so Close returns promptly — the "drain cleanly" half of the
// abort protocol.
func TestServerDrainsOnPoison(t *testing.T) {
	f, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s0, err := New(f.Endpoint(0), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(f.Endpoint(1), 10, 4); err != nil {
		t.Fatal(err)
	}
	f.Endpoint(1).Poison(errors.New("rank 1 died"))

	done := make(chan struct{})
	go func() {
		s0.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after fabric poison")
	}

	// Client calls on the poisoned store fail with the abort, not hang.
	err = func() error {
		errCh := make(chan error, 1)
		go func() { errCh <- s0.ReadBatch([]int32{9}, make([]byte, 4)) }()
		select {
		case e := <-errCh:
			return e
		case <-time.After(5 * time.Second):
			t.Fatal("ReadBatch hung on poisoned fabric")
			return nil
		}
	}()
	if _, ok := transport.AsAbort(err); !ok {
		t.Fatalf("ReadBatch on poisoned fabric returned %v, want AbortError", err)
	}
}

// TestReadAfterFabricCloseErrors: a DKV client must surface transport
// failure as an error rather than hanging — the behavior the distributed
// engine's error paths rely on.
func TestReadAfterFabricCloseErrors(t *testing.T) {
	f, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := New(f.Endpoint(0), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(f.Endpoint(1), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = s1
	f.Close()

	done := make(chan error, 1)
	go func() {
		// Key 9 is owned by rank 1; the remote read must fail fast.
		done <- s0.ReadBatch([]int32{9}, make([]byte, 4))
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read over closed fabric returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read over closed fabric hung")
	}
}

// TestWriteAfterFabricCloseErrors mirrors the read case for writes.
func TestWriteAfterFabricCloseErrors(t *testing.T) {
	f, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := New(f.Endpoint(0), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(f.Endpoint(1), 10, 4); err != nil {
		t.Fatal(err)
	}
	f.Close()

	done := make(chan error, 1)
	go func() {
		done <- s0.WriteBatch([]int32{9}, make([]byte, 4))
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write over closed fabric returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write over closed fabric hung")
	}
}

// TestCloseIsIdempotentAndUnblocksServer: Close must terminate the server
// goroutine even when called twice or after the fabric died.
func TestCloseIsIdempotentAndUnblocksServer(t *testing.T) {
	f, err := transport.NewFabric(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(f.Endpoint(0), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err) // second close: server already gone, must not hang
	}
	f.Close()

	// Close after the fabric is gone must also return promptly.
	f2, _ := transport.NewFabric(1)
	s2, err := New(f2.Endpoint(0), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f2.Close()
	done := make(chan struct{})
	go func() {
		s2.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after fabric shutdown")
	}
}
