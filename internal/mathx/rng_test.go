package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical draws", same)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	var matches int
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			matches++
		}
	}
	if matches != 0 {
		t.Fatalf("streams 0 and 1 collided %d times", matches)
	}
	// Same (master, stream) must reproduce.
	c := NewStream(7, 0)
	d := NewStream(7, 0)
	if c.Uint64() != d.Uint64() {
		t.Fatal("NewStream not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.Float64())
	}
	if math.Abs(w.Mean()-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want 0.5", w.Mean())
	}
	if math.Abs(w.Var()-1.0/12) > 0.005 {
		t.Fatalf("uniform variance = %v, want %v", w.Var(), 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 7)
	const draws = 70000
	for i := 0; i < draws; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := draws / 7
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 5*math.Sqrt(float64(want)) {
			t.Fatalf("bucket %d count %d deviates from %d", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nOne(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 100; i++ {
		if r.Uint64n(1) != 0 {
			t.Fatal("Uint64n(1) must always return 0")
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(8)
	var w Welford
	for i := 0; i < 400000; i++ {
		w.Add(r.Norm())
	}
	if math.Abs(w.Mean()) > 0.01 {
		t.Fatalf("normal mean = %v, want 0", w.Mean())
	}
	if math.Abs(w.Var()-1) > 0.02 {
		t.Fatalf("normal variance = %v, want 1", w.Var())
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(10)
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		out := make([]int, n)
		r.Perm(out)
		seen := make([]bool, n)
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformity(t *testing.T) {
	// Each of the 6 permutations of 3 elements should appear ~1/6 of the
	// time; a chi-square style tolerance catches bias bugs.
	r := NewRNG(12)
	counts := map[[3]int]int{}
	const draws = 60000
	out := make([]int, 3)
	for i := 0; i < draws; i++ {
		r.Perm(out)
		counts[[3]int{out[0], out[1], out[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct permutations, want 6", len(counts))
	}
	want := float64(draws) / 6
	for p, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("permutation %v count %d deviates from %.0f", p, c, want)
		}
	}
}

func TestSeedStreamMatchesNewStream(t *testing.T) {
	// SeedStream is the in-place form pooled RNG values rely on; it must
	// reproduce NewStream's state exactly, including after reuse.
	var pooled RNG
	pooled.Seed(999) // dirty the state (and the Box-Muller spare) first
	pooled.Norm()
	for _, stream := range []uint64{0, 1, 7, 1 << 40} {
		fresh := NewStream(42, stream)
		pooled.SeedStream(42, stream)
		for i := 0; i < 64; i++ {
			if a, b := fresh.Uint64(), pooled.Uint64(); a != b {
				t.Fatalf("stream %d draw %d: NewStream %x != SeedStream %x", stream, i, a, b)
			}
		}
		if a, b := fresh.Norm(), pooled.Norm(); a != b {
			t.Fatalf("stream %d: Norm diverged", stream)
		}
	}
}
