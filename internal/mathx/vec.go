package mathx

import "math"

// MaxAbsDiff returns the largest absolute element-wise difference between two
// equal-length slices; used by the equivalence tests between the sequential
// and distributed engines.
func MaxAbsDiff(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mathx: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range x {
		d := math.Abs(x[i] - y[i])
		if d > m {
			m = d
		}
	}
	return m
}

// MaxAbsDiff32 is MaxAbsDiff for float32 slices.
func MaxAbsDiff32(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("mathx: MaxAbsDiff32 length mismatch")
	}
	var m float64
	for i := range x {
		d := math.Abs(float64(x[i]) - float64(y[i]))
		if d > m {
			m = d
		}
	}
	return m
}
