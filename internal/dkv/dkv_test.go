package dkv

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mathx"
	"repro/internal/transport"
	"repro/internal/wire"
)

// spmdStores runs body on `size` ranks, each with its own Store over a
// shared in-process fabric.
func spmdStores(t *testing.T, size, n, valBytes int, body func(s *Store) error) {
	t.Helper()
	f, err := transport.NewFabric(size)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stores := make([]*Store, size)
	for r := 0; r < size; r++ {
		st, err := New(f.Endpoint(r), n, valBytes)
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = st
	}
	// Populate every shard before any rank's body runs, so reads never race
	// with initial population (the engine uses a barrier for the same).
	for _, st := range stores {
		populate(st)
	}
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = body(stores[r])
		}(r)
	}
	wg.Wait()
	for r := 0; r < size; r++ {
		stores[r].Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// value builds a recognisable test value for key k.
func value(k int, valBytes int) []byte {
	v := make([]byte, valBytes)
	for i := range v {
		v[i] = byte(k*31 + i)
	}
	return v
}

func populate(s *Store) {
	lo, hi := s.OwnedRange()
	for k := lo; k < hi; k++ {
		s.WriteLocal(k, value(k, s.valBytes))
	}
}

func TestPartitionCoversAllKeys(t *testing.T) {
	for _, size := range []int{1, 3, 4, 7} {
		for _, n := range []int{1, 10, 100, 101} {
			f, _ := transport.NewFabric(size)
			covered := make([]int, n)
			stores := make([]*Store, size)
			for r := 0; r < size; r++ {
				st, err := New(f.Endpoint(r), n, 4)
				if err != nil {
					t.Fatal(err)
				}
				stores[r] = st
				lo, hi := st.OwnedRange()
				for k := lo; k < hi; k++ {
					covered[k]++
				}
				for k := lo; k < hi; k++ {
					if st.Owner(k) != r {
						t.Fatalf("size=%d n=%d: Owner(%d) = %d, want %d", size, n, k, st.Owner(k), r)
					}
				}
			}
			for k, c := range covered {
				if c != 1 {
					t.Fatalf("size=%d n=%d: key %d covered %d times", size, n, k, c)
				}
			}
			for _, st := range stores {
				st.Close()
			}
			f.Close()
		}
	}
}

func TestReadBatchAcrossRanks(t *testing.T) {
	const n, vb = 40, 12
	spmdStores(t, 4, n, vb, func(s *Store) error {
		// Every rank reads every key.
		keys := make([]int32, n)
		for i := range keys {
			keys[i] = int32(i)
		}
		dst := make([]byte, n*vb)
		if err := s.ReadBatch(keys, dst); err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			want := value(k, vb)
			got := dst[k*vb : (k+1)*vb]
			for i := range want {
				if got[i] != want[i] {
					return fmt.Errorf("key %d byte %d: got %d want %d", k, i, got[i], want[i])
				}
			}
		}
		return nil
	})
}

// TestConcurrentExchanges: several goroutines per rank read and write
// through one Store at once, the way the pipelined loader reads beside the
// compute's writes. Each exchange takes its own pooled scratch and every
// reply frame is released after its values are copied out, so each read
// still sees exactly its own keys' values (run under -race in make race).
func TestConcurrentExchanges(t *testing.T) {
	const n, vb, ranks, readers, rounds = 96, 24, 3, 4, 40
	spmdStores(t, ranks, n, vb, func(s *Store) error {
		var wg sync.WaitGroup
		errs := make([]error, readers+1)
		for g := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := mathx.NewRNG(uint64(100*s.conn.Rank() + g))
				for range rounds {
					keys := make([]int32, 1+rng.Intn(n))
					for i := range keys {
						keys[i] = int32(rng.Intn(n / 2)) // the read-only half
					}
					dst := make([]byte, len(keys)*vb)
					if err := s.ReadBatch(keys, dst); err != nil {
						errs[g] = err
						return
					}
					for i, k := range keys {
						if !bytes.Equal(dst[i*vb:(i+1)*vb], value(int(k), vb)) {
							errs[g] = fmt.Errorf("goroutine %d: slot %d (key %d) holds another value", g, i, k)
							return
						}
					}
				}
			}()
		}
		wg.Add(1)
		go func() { // writes its rank's keys of the other half, unchanged
			defer wg.Done()
			var keys []int32
			var vals []byte
			for k := n / 2; k < n; k++ {
				if k%ranks == s.conn.Rank() {
					keys = append(keys, int32(k))
					vals = append(vals, value(k, vb)...)
				}
			}
			for range rounds {
				if err := s.WriteBatch(keys, vals); err != nil {
					errs[readers] = err
					return
				}
			}
		}()
		wg.Wait()
		return errors.Join(errs...)
	})
}

func TestReadBatchUnsortedDuplicateKeys(t *testing.T) {
	const n, vb = 20, 8
	spmdStores(t, 3, n, vb, func(s *Store) error {
		keys := []int32{19, 0, 7, 0, 19, 3}
		dst := make([]byte, len(keys)*vb)
		if err := s.ReadBatch(keys, dst); err != nil {
			return err
		}
		for i, k := range keys {
			want := value(int(k), vb)
			got := dst[i*vb : (i+1)*vb]
			for j := range want {
				if got[j] != want[j] {
					return fmt.Errorf("slot %d (key %d): mismatch", i, k)
				}
			}
		}
		return nil
	})
}

func TestWriteBatchVisibleToOtherRanks(t *testing.T) {
	const n, vb = 30, 8
	f, _ := transport.NewFabric(3)
	defer f.Close()
	stores := make([]*Store, 3)
	for r := 0; r < 3; r++ {
		st, err := New(f.Endpoint(r), n, vb)
		if err != nil {
			t.Fatal(err)
		}
		stores[r] = st
		defer st.Close()
	}
	// Rank 0 writes keys it does NOT own.
	keys := []int32{15, 25, 29}
	vals := make([]byte, 0, len(keys)*vb)
	for _, k := range keys {
		vals = append(vals, value(int(k)+1000, vb)...)
	}
	if err := stores[0].WriteBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	// Rank 1 reads them back.
	dst := make([]byte, len(keys)*vb)
	if err := stores[1].ReadBatch(keys, dst); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		want := value(int(k)+1000, vb)
		got := dst[i*vb : (i+1)*vb]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("key %d not updated across ranks", k)
			}
		}
	}
}

func TestStatsCountLocalVsRemote(t *testing.T) {
	const n, vb = 40, 4
	spmdStores(t, 4, n, vb, func(s *Store) error {
		lo, hi := s.OwnedRange()
		// Read exactly the owned range: all local.
		keys := make([]int32, 0, hi-lo)
		for k := lo; k < hi; k++ {
			keys = append(keys, int32(k))
		}
		dst := make([]byte, len(keys)*vb)
		if err := s.ReadBatch(keys, dst); err != nil {
			return err
		}
		if s.Stats().RemoteKeys.Load() != 0 {
			return fmt.Errorf("local read counted as remote")
		}
		if got := s.Stats().LocalKeys.Load(); got != int64(len(keys)) {
			return fmt.Errorf("local keys = %d, want %d", got, len(keys))
		}
		// Read a foreign key: remote. With 4 ranks over 40 keys, the key
		// just past the owned range (wrapping) always belongs to a peer.
		foreign := int32(hi % n)
		if err := s.ReadBatch([]int32{foreign}, make([]byte, vb)); err != nil {
			return err
		}
		if s.Stats().RemoteKeys.Load() != 1 || s.Stats().Requests.Load() != 1 {
			return fmt.Errorf("remote read miscounted: %d keys %d reqs",
				s.Stats().RemoteKeys.Load(), s.Stats().Requests.Load())
		}
		return nil
	})
}

func TestRemoteFractionMatchesPaper(t *testing.T) {
	// Random reads over C ranks must touch ~(C-1)/C remote keys — the load
	// pattern the paper's Section IV-C derives.
	const n, vb, c = 1000, 4, 5
	spmdStores(t, c, n, vb, func(s *Store) error {
		rng := mathx.NewRNG(uint64(s.conn.Rank() + 1))
		keys := make([]int32, 2000)
		for i := range keys {
			keys[i] = int32(rng.Intn(n))
		}
		dst := make([]byte, len(keys)*vb)
		if err := s.ReadBatch(keys, dst); err != nil {
			return err
		}
		remote := float64(s.Stats().RemoteKeys.Load())
		total := remote + float64(s.Stats().LocalKeys.Load())
		frac := remote / total
		want := float64(c-1) / float64(c)
		if frac < want-0.05 || frac > want+0.05 {
			return fmt.Errorf("remote fraction %.3f, want ≈%.3f", frac, want)
		}
		return nil
	})
}

func TestValidation(t *testing.T) {
	f, _ := transport.NewFabric(1)
	defer f.Close()
	if _, err := New(f.Endpoint(0), 0, 4); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := New(f.Endpoint(0), 4, 0); err == nil {
		t.Fatal("valBytes=0 accepted")
	}
	s, err := New(f.Endpoint(0), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ReadBatch([]int32{0}, make([]byte, 1)); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := s.WriteBatch([]int32{0}, make([]byte, 1)); err == nil {
		t.Fatal("short values accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range key did not panic")
			}
		}()
		s.ReadBatch([]int32{99}, make([]byte, 4))
	}()
}

func TestSingleRankStore(t *testing.T) {
	// Degenerate cluster of one: everything is local, semantics unchanged.
	spmdStores(t, 1, 10, 8, func(s *Store) error {
		keys := []int32{3, 7, 1}
		dst := make([]byte, len(keys)*8)
		if err := s.ReadBatch(keys, dst); err != nil {
			return err
		}
		if s.Stats().Requests.Load() != 0 {
			return fmt.Errorf("single rank issued network requests")
		}
		newVal := value(999, 8)
		if err := s.WriteBatch([]int32{3}, newVal); err != nil {
			return err
		}
		got := make([]byte, 8)
		s.ReadLocal(3, got)
		for i := range newVal {
			if got[i] != newVal[i] {
				return fmt.Errorf("local write lost")
			}
		}
		return nil
	})
}

func TestWireHelpersUsedByProtocol(t *testing.T) {
	// Round trip a request frame exactly as the server parses it.
	keys := []int32{5, 9, 1}
	req := appendHeader(nil, opRead, 77, uint32(len(keys)))
	req = wire.AppendInt32s(req, keys)
	if wire.Uint32At(req, 0) != opRead || wire.Uint32At(req, 4) != 77 {
		t.Fatal("header fields wrong")
	}
	if len(req) != reqHeaderBytes+4*len(keys) {
		t.Fatalf("frame is %d bytes, want %d", len(req), reqHeaderBytes+4*len(keys))
	}
	if sendNS := int64(wire.Uint64At(req, 12)); sendNS <= 0 {
		t.Fatalf("send timestamp %d, want > 0", sendNS)
	}
	out := make([]int32, 3)
	wire.Int32s(req, reqHeaderBytes, 3, out)
	for i := range keys {
		if out[i] != keys[i] {
			t.Fatal("keys corrupted")
		}
	}
}
