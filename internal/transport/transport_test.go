package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// connFactory abstracts over backends so every test runs against both.
type connFactory func(t *testing.T, size int) []Conn

func inprocFactory(t *testing.T, size int) []Conn {
	t.Helper()
	f, err := NewFabric(size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f.Endpoints()
}

func tcpFactory(t *testing.T, size int) []Conn {
	t.Helper()
	conns, cleanup, err := DialLoopbackMesh(size)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	return conns
}

func backends() map[string]connFactory {
	return map[string]connFactory{"inproc": inprocFactory, "tcp": tcpFactory}
}

func TestPointToPoint(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 3)
			go func() {
				conns[0].Send(1, 7, []byte("hello"))
				conns[2].Send(1, 7, []byte("world"))
			}()
			m1, err := conns[1].Recv(0, 7)
			if err != nil || string(m1) != "hello" {
				t.Fatalf("recv from 0: %q, %v", m1, err)
			}
			m2, err := conns[1].Recv(2, 7)
			if err != nil || string(m2) != "world" {
				t.Fatalf("recv from 2: %q, %v", m2, err)
			}
		})
	}
}

func TestTagDemux(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 2)
			// Send tag 2 first, then tag 1; receiver asks for tag 1 first.
			if err := conns[0].Send(1, 2, []byte("second")); err != nil {
				t.Fatal(err)
			}
			if err := conns[0].Send(1, 1, []byte("first")); err != nil {
				t.Fatal(err)
			}
			m, err := conns[1].Recv(0, 1)
			if err != nil || string(m) != "first" {
				t.Fatalf("tag 1: %q, %v", m, err)
			}
			m, err = conns[1].Recv(0, 2)
			if err != nil || string(m) != "second" {
				t.Fatalf("tag 2: %q, %v", m, err)
			}
		})
	}
}

func TestFIFOPerSenderTag(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 2)
			const n = 200
			go func() {
				for i := 0; i < n; i++ {
					conns[0].Send(1, 5, []byte{byte(i)})
				}
			}()
			for i := 0; i < n; i++ {
				m, err := conns[1].Recv(0, 5)
				if err != nil {
					t.Errorf("recv %d: %v", i, err)
					return
				}
				if m[0] != byte(i) {
					t.Errorf("message %d out of order: got %d", i, m[0])
					return
				}
			}
		})
	}
}

func TestRecvAny(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 4)
			for r := 1; r < 4; r++ {
				if err := conns[r].Send(0, 9, []byte{byte(r)}); err != nil {
					t.Fatal(err)
				}
			}
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				from, m, err := conns[0].RecvAny(9)
				if err != nil {
					t.Fatal(err)
				}
				if int(m[0]) != from {
					t.Fatalf("payload %d does not match sender %d", m[0], from)
				}
				seen[from] = true
			}
			if len(seen) != 3 {
				t.Fatalf("RecvAny saw %d senders, want 3", len(seen))
			}
		})
	}
}

func TestRecvAnyInterleavedWithTargetedRecv(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 3)
			if err := conns[1].Send(0, 3, []byte("from1")); err != nil {
				t.Fatal(err)
			}
			if err := conns[2].Send(0, 3, []byte("from2")); err != nil {
				t.Fatal(err)
			}
			// Targeted recv consumes rank 2's message...
			m, err := conns[0].Recv(2, 3)
			if err != nil || string(m) != "from2" {
				t.Fatalf("targeted recv: %q, %v", m, err)
			}
			// ...so RecvAny must deliver rank 1's, not a stale entry.
			from, m, err := conns[0].RecvAny(3)
			if err != nil || from != 1 || string(m) != "from1" {
				t.Fatalf("RecvAny: from=%d %q, %v", from, m, err)
			}
		})
	}
}

func TestSendToSelf(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 2)
			if err := conns[0].Send(0, 1, []byte("loop")); err != nil {
				t.Fatal(err)
			}
			m, err := conns[0].Recv(0, 1)
			if err != nil || string(m) != "loop" {
				t.Fatalf("self message: %q, %v", m, err)
			}
		})
	}
}

func TestRankSizeAccessors(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 3)
			for r, c := range conns {
				if c.Rank() != r || c.Size() != 3 {
					t.Fatalf("rank/size = %d/%d, want %d/3", c.Rank(), c.Size(), r)
				}
			}
		})
	}
}

func TestSendOutOfRange(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 2)
			if err := conns[0].Send(5, 1, nil); err == nil {
				t.Fatal("send to rank 5 accepted")
			}
			if _, err := conns[0].Recv(-1, 1); err == nil {
				t.Fatal("recv from rank -1 accepted")
			}
		})
	}
}

func TestCloseReleasesBlockedRecv(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 2)
			done := make(chan error, 1)
			go func() {
				_, err := conns[0].Recv(1, 42)
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			conns[0].Close()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("blocked Recv returned nil after Close")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Recv still blocked after Close")
			}
		})
	}
}

func TestLargePayload(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			conns := factory(t, 2)
			payload := make([]byte, 1<<20)
			for i := range payload {
				payload[i] = byte(i * 31)
			}
			want := append([]byte(nil), payload...)
			go conns[0].Send(1, 1, payload)
			m, err := conns[1].Recv(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(m) != len(want) {
				t.Fatalf("length %d, want %d", len(m), len(want))
			}
			for i := range m {
				if m[i] != want[i] {
					t.Fatalf("payload corrupted at %d", i)
				}
			}
		})
	}
}

func TestManyToOneStress(t *testing.T) {
	for name, factory := range backends() {
		t.Run(name, func(t *testing.T) {
			const size = 5
			const msgs = 100
			conns := factory(t, size)
			var wg sync.WaitGroup
			for r := 1; r < size; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < msgs; i++ {
						if err := conns[r].Send(0, 8, []byte(fmt.Sprintf("%d:%d", r, i))); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(r)
			}
			counts := map[int]int{}
			for i := 0; i < (size-1)*msgs; i++ {
				from, _, err := conns[0].RecvAny(8)
				if err != nil {
					t.Fatal(err)
				}
				counts[from]++
			}
			wg.Wait()
			for r := 1; r < size; r++ {
				if counts[r] != msgs {
					t.Fatalf("rank %d delivered %d messages, want %d", r, counts[r], msgs)
				}
			}
		})
	}
}

func TestFabricValidation(t *testing.T) {
	if _, err := NewFabric(0); err == nil {
		t.Fatal("zero-size fabric accepted")
	}
	f, _ := NewFabric(2)
	defer f.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range endpoint did not panic")
		}
	}()
	f.Endpoint(5)
}

func TestDialMeshBadRank(t *testing.T) {
	if _, err := DialMesh(3, []string{"127.0.0.1:0"}); err == nil {
		t.Fatal("bad rank accepted")
	}
}

// TestMailboxDoesNotAccumulate is the regression test for the queue-pinning
// leak: collective tags never repeat, so drained queues must be deleted and
// consumed payloads released, or every message ever delivered stays live.
func TestMailboxDoesNotAccumulate(t *testing.T) {
	f, err := NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, b := f.Endpoint(0), f.Endpoint(1)
	for i := 0; i < 10000; i++ {
		tag := uint32(i) // unique per message, like collective sequencing
		if err := a.Send(1, tag, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(0, tag); err != nil {
			t.Fatal(err)
		}
	}
	box := f.boxes[1]
	box.mu.Lock()
	defer box.mu.Unlock()
	if len(box.queues) != 0 {
		t.Fatalf("mailbox retains %d drained queues", len(box.queues))
	}
	if len(box.anyOrder) != 0 {
		t.Fatalf("mailbox retains %d anyOrder lists", len(box.anyOrder))
	}
}

// TestMailboxReleasesPayloadsViaRecvAny covers the same property on the
// RecvAny path (the DKV server's receive loop).
func TestMailboxReleasesPayloadsViaRecvAny(t *testing.T) {
	f, err := NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 5000; i++ {
		if err := f.Endpoint(0).Send(1, 7, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.Endpoint(1).RecvAny(7); err != nil {
			t.Fatal(err)
		}
	}
	box := f.boxes[1]
	box.mu.Lock()
	defer box.mu.Unlock()
	if len(box.queues) != 0 || len(box.anyOrder) != 0 {
		t.Fatalf("RecvAny path retains state: %d queues, %d order lists",
			len(box.queues), len(box.anyOrder))
	}
}
