package repro

import (
	"testing"

	"repro/internal/svi"
)

// BenchmarkSVIStep measures the variational baseline's per-iteration cost,
// comparable with BenchmarkFig4HorizVert's vertical-threaded MCMC numbers.
func BenchmarkSVIStep(b *testing.B) {
	train, held := benchFixture(b, "svi", 3000, 16, 30000, 83)
	s, err := svi.NewSampler(svi.DefaultConfig(32, 89), train, held, svi.Options{
		Threads: 0, NodeBatch: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Run(b.N)
}
