package mathx

// Welford accumulates a running mean and variance without storing samples.
// No binary reaches it: it is the oracle of the statistical tests on the
// distribution samplers and the minibatch estimators.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations folded in so far.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Min returns the smallest observation (0 for an empty accumulator).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 for an empty accumulator).
func (w *Welford) Max() float64 { return w.max }

// Quantile computes the q-quantile (0 <= q <= 1) of a sorted slice with
// linear interpolation. The input must be sorted ascending.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("mathx: Quantile of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
