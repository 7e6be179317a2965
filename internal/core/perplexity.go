package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/par"
)

// Perplexity computes the single-sample perplexity of state s on held —
// Eqn (7) with T = 1. Used by tests and by quick diagnostics; training loops
// fold HeldOutEval's running mean.
func Perplexity(s *State, held *graph.HeldOut, delta float64, workers int) float64 {
	logSum := par.ChunkedReduce(held.Len(), PerplexityChunk, workers, func(lo, hi int) float64 {
		var acc float64
		for i := lo; i < hi; i++ {
			e := held.Pairs[i]
			acc += LogLikelihoodPair(s.PiRow(int(e.A)), s.PiRow(int(e.B)), s.Beta, delta, held.Linked[i])
		}
		return acc
	})
	return math.Exp(-logSum / float64(held.Len()))
}
