package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestCollectivesFailAfterClose: a dead fabric must surface as errors from
// every collective, never as a hang — the engine's per-rank error paths
// depend on it.
func TestCollectivesFailAfterClose(t *testing.T) {
	f, err := transport.NewFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]*Comm, 3)
	for r := 0; r < 3; r++ {
		comms[r] = New(f.Endpoint(r))
	}
	f.Close()

	type op struct {
		name string
		fn   func(c *Comm) error
	}
	ops := []op{
		{"barrier", func(c *Comm) error { return c.Barrier() }},
		{"bcast", func(c *Comm) error { _, err := c.Bcast(0, []byte("x")); return err }},
		{"gather", func(c *Comm) error { _, err := c.Gather(0, []byte("x")); return err }},
		{"reduce", func(c *Comm) error { _, err := c.ReduceSum(0, []float64{1}); return err }},
	}
	for _, o := range ops {
		done := make(chan error, 1)
		go func() { done <- o.fn(comms[0]) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s on closed fabric returned nil", o.name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hung on closed fabric", o.name)
		}
	}
}

// TestAbortReleasesBarrier is the core of the abort protocol: ranks blocked
// in a collective must return a typed AbortError naming the failing rank —
// not hang — when a peer calls Abort.
func TestAbortReleasesBarrier(t *testing.T) {
	f, err := transport.NewFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	comms := make([]*Comm, 3)
	for r := 0; r < 3; r++ {
		comms[r] = New(f.Endpoint(r))
	}

	// Ranks 0 and 2 enter the barrier; rank 1 never does — it fails.
	results := make(chan error, 2)
	for _, r := range []int{0, 2} {
		go func(r int) { results <- comms[r].Barrier() }(r)
	}
	time.Sleep(20 * time.Millisecond)
	cause := errors.New("rank 1 exploded")
	comms[1].Abort(cause)

	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			var ae *transport.AbortError
			if !errors.As(err, &ae) {
				t.Fatalf("barrier error %v is not an AbortError", err)
			}
			if ae.Rank != 1 {
				t.Fatalf("abort names rank %d, want 1", ae.Rank)
			}
			if ae.Msg != cause.Error() {
				t.Fatalf("abort message %q, want %q", ae.Msg, cause.Error())
			}
		case <-time.After(5 * time.Second):
			t.Fatal("barrier still blocked after Abort")
		}
	}
}

// TestAbortReleasesEveryCollective: the same guarantee for each collective
// shape (send-then-recv, recv-only, gather fan-in).
func TestAbortReleasesEveryCollective(t *testing.T) {
	type op struct {
		name string
		fn   func(c *Comm) error
	}
	ops := []op{
		{"barrier", func(c *Comm) error { return c.Barrier() }},
		{"bcast-recv", func(c *Comm) error { _, err := c.Bcast(0, nil); return err }},
		{"scatter-recv", func(c *Comm) error { _, err := c.Scatter(0, nil); return err }},
		{"gather-root", func(c *Comm) error { _, err := c.Gather(1, []byte("x")); return err }},
		{"allreduce", func(c *Comm) error { _, err := c.AllReduceSum([]float64{1}); return err }},
	}
	for _, o := range ops {
		t.Run(o.name, func(t *testing.T) {
			f, err := transport.NewFabric(2)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			c0, c1 := New(f.Endpoint(0)), New(f.Endpoint(1))
			done := make(chan error, 1)
			go func() { done <- o.fn(c1) }()
			time.Sleep(10 * time.Millisecond)
			c0.Abort(fmt.Errorf("abort during %s", o.name))
			select {
			case err := <-done:
				var ae *transport.AbortError
				if !errors.As(err, &ae) || ae.Rank != 0 {
					t.Fatalf("%s error %v, want AbortError from rank 0", o.name, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s still blocked after Abort", o.name)
			}
		})
	}
}

// TestBcastBuffersDoNotAlias pins down the transport ownership contract at
// the collective level: Bcast hands the same data slice to every Send, so a
// receiver mutating its copy must not corrupt the root's buffer or another
// rank's copy.
func TestBcastBuffersDoNotAlias(t *testing.T) {
	const ranks = 3
	f, err := transport.NewFabric(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	comms := make([]*Comm, ranks)
	for r := range comms {
		comms[r] = New(f.Endpoint(r))
	}
	rootData := []byte("the one true payload")
	orig := append([]byte(nil), rootData...)

	got := make([][]byte, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var data []byte
			if r == 0 {
				data = rootData
			}
			out, err := comms[r].Bcast(0, data)
			if err != nil {
				t.Errorf("rank %d bcast: %v", r, err)
				return
			}
			got[r] = out
		}(r)
	}
	wg.Wait()

	// Rank 1 scribbles over its received buffer.
	for i := range got[1] {
		got[1][i] = '!'
	}
	if !bytes.Equal(rootData, orig) {
		t.Fatalf("root's buffer corrupted by rank 1's mutation: %q", rootData)
	}
	if !bytes.Equal(got[2], orig) {
		t.Fatalf("rank 2's buffer corrupted by rank 1's mutation: %q", got[2])
	}
}

// TestNonRootScatterOnClosedFabric covers the receive side.
func TestNonRootScatterOnClosedFabric(t *testing.T) {
	f, err := transport.NewFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	c1 := New(f.Endpoint(1))
	f.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c1.Scatter(0, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("scatter recv on closed fabric returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scatter recv hung")
	}
}
