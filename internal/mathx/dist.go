package mathx

import "math"

// Gamma returns a sample from the Gamma(shape, 1) distribution using the
// Marsaglia-Tsang squeeze method, with the Ahrens boost for shape < 1.
// The scale parameter is left to the caller (multiply the result).
//
// The sampler is the workhorse of state initialisation: every φ_ak and θ_ki
// is drawn from a Gamma prior before the first iteration.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("mathx: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^{1/a} for a < 1 (Ahrens-Dieter boost).
		u := r.Float64Open()
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Norm()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64Open()
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return d * v
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a sample from the Beta(a, b) distribution via two Gammas.
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a)
	y := r.Gamma(b)
	return x / (x + y)
}

// Dirichlet fills out with a sample from the symmetric Dirichlet(alpha)
// distribution of dimension len(out). out must be non-empty.
func (r *RNG) Dirichlet(alpha float64, out []float64) {
	if len(out) == 0 {
		panic("mathx: Dirichlet with empty output")
	}
	sum := 0.0
	for i := range out {
		v := r.Gamma(alpha)
		out[i] = v
		sum += v
	}
	if sum == 0 {
		// Extremely small alpha can underflow every component; fall back
		// to a deterministic corner of the simplex.
		out[r.Intn(len(out))] = 1
		return
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with positive sum.
func (r *RNG) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("mathx: Categorical with non-positive weight sum")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Binomial returns a sample from Binomial(n, p) by inversion for small n·p
// and by per-trial simulation otherwise. It is used only by the synthetic
// graph generators, so simplicity beats constant-factor speed here.
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 || p < 0 || p > 1 {
		panic("mathx: Binomial with invalid parameters")
	}
	if p == 0 || n == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	// Inversion by geometric skips: efficient when n·p is modest, which is
	// always the case for sparse graph generation.
	count := 0
	i := -1
	logq := math.Log1p(-p)
	for {
		step := math.Floor(math.Log(r.Float64Open()) / logq)
		if step > float64(n) { // guard against +Inf / overflow
			break
		}
		i += int(step) + 1
		if i >= n {
			break
		}
		count++
	}
	return count
}
