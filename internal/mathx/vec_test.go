package mathx

import (
	"math"
	"testing"
)

func TestMaxAbsDiff(t *testing.T) {
	if d := MaxAbsDiff([]float64{1, 2, 3}, []float64{1, 5, 2}); d != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", d)
	}
	if d := MaxAbsDiff(nil, nil); d != 0 {
		t.Fatalf("MaxAbsDiff(nil,nil) = %v, want 0", d)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(w.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v, want %v", w.Var(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	if Quantile(s, 0) != 1 || Quantile(s, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if Quantile(s, 0.5) != 3 {
		t.Fatalf("median = %v, want 3", Quantile(s, 0.5))
	}
	if got := Quantile(s, 0.25); got != 2 {
		t.Fatalf("q25 = %v, want 2", got)
	}
}
