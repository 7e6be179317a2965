package mathx

import "testing"

func BenchmarkUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := NewRNG(2)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000000)
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := NewRNG(3)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm()
	}
	_ = sink
}

func BenchmarkGamma(b *testing.B) {
	r := NewRNG(4)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Gamma(0.5)
	}
	_ = sink
}

func BenchmarkDirichlet(b *testing.B) {
	r := NewRNG(5)
	out := make([]float64, 64)
	for i := 0; i < b.N; i++ {
		r.Dirichlet(0.1, out)
	}
}

func BenchmarkNewStream(b *testing.B) {
	// Every (iteration, vertex) pair allocates a stream; this must be cheap.
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= NewStream(42, uint64(i)).Uint64()
	}
	_ = sink
}

func BenchmarkDigamma(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Digamma(0.1 + float64(i%100))
	}
	_ = sink
}
