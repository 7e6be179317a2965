package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/mathx"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified. An
// empty slice yields NaN so a missing measurement cannot pass as a number.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mathx.Quantile(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the guide's reporting rule: the highest of p50/p90/p95/p99
// that still has at least ten samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= 10 {
			return q
		}
	}
	return 0.5
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// deltasMS turns n+1 monotone timestamps into n consecutive gaps in ms.
func deltasMS(ts []time.Time) []float64 {
	if len(ts) < 2 {
		return nil
	}
	out := make([]float64, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = ms(ts[i].Sub(ts[i-1]))
	}
	return out
}

// spread is the acceptance statistic of the builder's contract: the distance
// between the first and third quartile as a share of the median, with the
// quartiles computed as Python's statistics.quantiles(values, n=4) does
// (the "exclusive" method: position i·(n+1)/4 in the sorted sample).
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}
