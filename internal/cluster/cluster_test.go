package cluster

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// spmd runs body on `size` ranks over an in-process fabric and fails the
// test on any returned error.
func spmd(t *testing.T, size int, body func(c *Comm) error) {
	t.Helper()
	f, err := transport.NewFabric(size)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(New(f.Endpoint(r)))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestBarrierAllRanksPass(t *testing.T) {
	for _, size := range []int{1, 2, 5, 16} {
		var mu sync.Mutex
		entered := 0
		spmd(t, size, func(c *Comm) error {
			mu.Lock()
			entered++
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if entered != size {
				return fmt.Errorf("passed barrier with %d/%d ranks entered", entered, size)
			}
			return nil
		})
	}
}

func TestBcast(t *testing.T) {
	spmd(t, 4, func(c *Comm) error {
		var data []byte
		if c.Rank() == 2 {
			data = []byte("payload")
		}
		got, err := c.Bcast(2, data)
		if err != nil {
			return err
		}
		if string(got) != "payload" {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
}

func TestGatherOrdered(t *testing.T) {
	spmd(t, 5, func(c *Comm) error {
		parts, err := c.Gather(0, []byte{byte(c.Rank() * 10)})
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if parts != nil {
				return fmt.Errorf("non-root received gather result")
			}
			return nil
		}
		for r, p := range parts {
			if len(p) != 1 || p[0] != byte(r*10) {
				return fmt.Errorf("parts[%d] = %v", r, p)
			}
		}
		return nil
	})
}

func TestScatter(t *testing.T) {
	spmd(t, 4, func(c *Comm) error {
		var parts [][]byte
		if c.Rank() == 0 {
			for r := 0; r < 4; r++ {
				parts = append(parts, []byte{byte(r), byte(r * 2)})
			}
		}
		got, err := c.Scatter(0, parts)
		if err != nil {
			return err
		}
		if got[0] != byte(c.Rank()) || got[1] != byte(c.Rank()*2) {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
}

func TestScatterWrongPartCount(t *testing.T) {
	f, _ := transport.NewFabric(1)
	defer f.Close()
	c := New(f.Endpoint(0))
	if _, err := c.Scatter(0, [][]byte{nil, nil}); err == nil {
		t.Fatal("scatter with wrong part count accepted")
	}
}

func TestReduceSum(t *testing.T) {
	const size = 6
	spmd(t, size, func(c *Comm) error {
		vec := []float64{float64(c.Rank()), 1, -float64(c.Rank() * 2)}
		total, err := c.ReduceSum(0, vec)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if total != nil {
				return fmt.Errorf("non-root got a total")
			}
			return nil
		}
		// Σ ranks = 15, Σ 1 = 6, Σ -2r = -30.
		want := []float64{15, 6, -30}
		for i := range want {
			if math.Abs(total[i]-want[i]) > 1e-12 {
				return fmt.Errorf("total = %v, want %v", total, want)
			}
		}
		return nil
	})
}

func TestReduceSumDeterministicOrder(t *testing.T) {
	// The fold must happen in rank order: with values whose float64 sum is
	// order-sensitive, every run must produce the identical bits.
	const size = 4
	results := make(chan float64, 8)
	for trial := 0; trial < 2; trial++ {
		spmd(t, size, func(c *Comm) error {
			v := []float64{1e16, 1, -1e16, 3.14159}[c.Rank()]
			total, err := c.ReduceSum(0, []float64{v})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				results <- total[0]
			}
			return nil
		})
	}
	a, b := <-results, <-results
	if a != b {
		t.Fatalf("reduce order unstable: %v vs %v", a, b)
	}
}

func TestAllReduceSum(t *testing.T) {
	const size = 5
	spmd(t, size, func(c *Comm) error {
		total, err := c.AllReduceSum([]float64{float64(c.Rank() + 1)})
		if err != nil {
			return err
		}
		if total[0] != 15 {
			return fmt.Errorf("rank %d: total = %v, want 15", c.Rank(), total[0])
		}
		return nil
	})
}

func TestCollectiveSequencing(t *testing.T) {
	// Back-to-back collectives with identical shapes must not cross-talk.
	spmd(t, 3, func(c *Comm) error {
		for i := 0; i < 20; i++ {
			got, err := c.AllReduceSum([]float64{float64(i)})
			if err != nil {
				return err
			}
			if got[0] != float64(3*i) {
				return fmt.Errorf("round %d: got %v", i, got[0])
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestWireRoundTrips(t *testing.T) {
	f64 := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)}
	buf := wire.AppendFloat64s(nil, f64)
	out := make([]float64, len(f64))
	if off := wire.Float64s(buf, 0, len(f64), out); off != len(buf) {
		t.Fatalf("offset %d, want %d", off, len(buf))
	}
	for i := range f64 {
		if out[i] != f64[i] {
			t.Fatalf("float64 round trip: %v != %v", out[i], f64[i])
		}
	}

	f32 := []float32{0, 1.5, -7}
	buf = wire.AppendFloat32s(nil, f32)
	out32 := make([]float32, 3)
	wire.Float32s(buf, 0, 3, out32)
	for i := range f32 {
		if out32[i] != f32[i] {
			t.Fatal("float32 round trip failed")
		}
	}

	i32 := []int32{-1, 0, 1 << 30}
	buf = wire.AppendInt32s(nil, i32)
	outI := make([]int32, 3)
	wire.Int32s(buf, 0, 3, outI)
	for i := range i32 {
		if outI[i] != i32[i] {
			t.Fatal("int32 round trip failed")
		}
	}

	bools := []bool{true, false, true}
	buf = wire.AppendBools(nil, bools)
	outB := make([]bool, 3)
	wire.Bools(buf, 0, 3, outB)
	for i := range bools {
		if outB[i] != bools[i] {
			t.Fatal("bool round trip failed")
		}
	}
}

// TestAllGatherVariableLength checks the variable-length collective: each
// rank contributes a payload of a different size (including an empty one),
// and every rank must receive the identical rank-indexed list.
func TestAllGatherVariableLength(t *testing.T) {
	for _, size := range []int{1, 2, 5} {
		spmd(t, size, func(c *Comm) error {
			// Rank r contributes r bytes: rank 0's part is empty.
			mine := make([]byte, c.Rank())
			for i := range mine {
				mine[i] = byte(c.Rank()*100 + i)
			}
			parts, err := c.AllGather(mine)
			if err != nil {
				return err
			}
			if len(parts) != size {
				return fmt.Errorf("got %d parts, want %d", len(parts), size)
			}
			for r, p := range parts {
				if len(p) != r {
					return fmt.Errorf("part %d has %d bytes, want %d", r, len(p), r)
				}
				for i, b := range p {
					if want := byte(r*100 + i); b != want {
						return fmt.Errorf("part %d byte %d = %d, want %d", r, i, b, want)
					}
				}
			}
			return nil
		})
	}
}

// TestAllGatherInt32Sets round-trips the exact shape the store's write-set
// exchange uses: int32 id lists of uneven lengths.
func TestAllGatherInt32Sets(t *testing.T) {
	spmd(t, 3, func(c *Comm) error {
		var ids []int32
		for i := 0; i <= c.Rank(); i++ {
			ids = append(ids, int32(c.Rank()*1000+i))
		}
		if c.Rank() == 1 {
			ids = nil // a rank with nothing written contributes an empty set
		}
		parts, err := c.AllGather(wire.AppendInt32s(nil, ids))
		if err != nil {
			return err
		}
		var union []int32
		for _, p := range parts {
			got := make([]int32, len(p)/4)
			wire.Int32s(p, 0, len(got), got)
			union = append(union, got...)
		}
		want := []int32{0, 2000, 2001, 2002}
		if len(union) != len(want) {
			return fmt.Errorf("union %v, want %v", union, want)
		}
		for i := range want {
			if union[i] != want[i] {
				return fmt.Errorf("union %v, want %v", union, want)
			}
		}
		return nil
	})
}
