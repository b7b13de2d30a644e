package health

import (
	"math"

	"adatm/internal/dense"
)

// KappaCeil is the largest condition number the estimator reports. Values
// beyond it are indistinguishable from singular in float64 arithmetic, and a
// finite ceiling keeps every health signal JSON-marshalable.
const KappaCeil = 1e15

const (
	// maxPowerIters bounds both the forward and the inverse power iteration.
	// On R×R Gram-Hadamard systems (R ≤ 256) each iteration is O(R²), so the
	// bound caps the probe's per-mode cost at a few thousand flops while
	// leaving enough headroom for clustered spectra: with an eigenvalue ratio
	// as benign as 0.9 the Rayleigh quotient converges to machine-level in
	// well under 48 steps, and for near-degenerate extremes (ratio → 1) the
	// quotient is within the cluster anyway, so truncation cannot miss by
	// more than the cluster width.
	maxPowerIters = 48
	// powerTol is the relative Rayleigh-quotient change below which the
	// iteration is declared converged.
	powerTol = 1e-6
)

// condEstimator estimates the spectral condition number of small SPD
// matrices with reusable scratch, so repeated estimates (one per mode per
// ALS iteration) are allocation-free after the first call at a given size.
type condEstimator struct {
	n    int
	chol []float64 // in-place lower-triangular Cholesky factor, row-major n×n
	v    []float64 // power-iteration vector
	w    []float64 // power-iteration workspace
}

func (ce *condEstimator) resize(n int) {
	if ce.n == n {
		return
	}
	ce.n = n
	ce.chol = make([]float64, n*n)
	ce.v = make([]float64, n)
	ce.w = make([]float64, n)
}

// estimate returns κ̂ = λ̂max/λ̂min of the SPD matrix a, clamped to
// [1, KappaCeil]. λ̂max comes from forward power iteration, λ̂min from
// inverse power iteration through a Cholesky factorization; both use the
// Rayleigh quotient with an early exit, bounded at maxPowerIters matrix
// applications. A matrix whose factorization fails (numerically
// semi-definite) reports KappaCeil.
func (ce *condEstimator) estimate(a *dense.Matrix) float64 {
	n := a.Rows
	if n != a.Cols {
		panic("health: condition estimate needs a square matrix")
	}
	ce.resize(n)
	if n == 1 {
		if a.Data[0] > 0 {
			return 1
		}
		return KappaCeil
	}
	lmax := ce.powerMax(a)
	if !(lmax > 0) || math.IsInf(lmax, 0) {
		return KappaCeil
	}
	copy(ce.chol, a.Data)
	if !cholInPlace(ce.chol, n) {
		return KappaCeil
	}
	lmin := ce.invPowerMin(n)
	if !(lmin > 0) {
		return KappaCeil
	}
	k := lmax / lmin
	if math.IsNaN(k) || k > KappaCeil {
		return KappaCeil
	}
	if k < 1 {
		k = 1
	}
	return k
}

// seedVector fills v with a fixed, mildly graded start vector and normalizes
// it. Deterministic (the probe must not perturb run reproducibility) and
// non-uniform, so it is never exactly orthogonal to the extremal
// eigenvector of a structured matrix the way an all-ones vector can be.
func seedVector(v []float64) {
	n := float64(len(v))
	for i := range v {
		v[i] = 1 + float64(i+1)/n
	}
	normalize(v)
}

// powerMax estimates the largest eigenvalue of a via power iteration.
func (ce *condEstimator) powerMax(a *dense.Matrix) float64 {
	n, v, w := ce.n, ce.v, ce.w
	seedVector(v)
	lam := 0.0
	for it := 0; it < maxPowerIters; it++ {
		for i := 0; i < n; i++ {
			row := a.Row(i)
			s := 0.0
			for j, x := range row {
				s += x * v[j]
			}
			w[i] = s
		}
		rq := dot(v, w) // Rayleigh quotient (v is unit-norm)
		nw := norm(w)
		if nw == 0 || math.IsNaN(nw) || math.IsInf(nw, 0) {
			return rq
		}
		inv := 1 / nw
		for i := range v {
			v[i] = w[i] * inv
		}
		if it > 0 && math.Abs(rq-lam) <= powerTol*math.Abs(rq) {
			return rq
		}
		lam = rq
	}
	return lam
}

// invPowerMin estimates the smallest eigenvalue of the matrix whose Cholesky
// factor is held in ce.chol, by power iteration on the inverse (each step is
// one forward + one backward triangular solve).
func (ce *condEstimator) invPowerMin(n int) float64 {
	v, w := ce.v, ce.w
	seedVector(v)
	lam := 0.0 // dominant eigenvalue of A⁻¹
	for it := 0; it < maxPowerIters; it++ {
		copy(w, v)
		cholSolve(ce.chol, n, w)
		rq := dot(v, w)
		nw := norm(w)
		if nw == 0 || math.IsNaN(nw) || math.IsInf(nw, 0) {
			return 0
		}
		inv := 1 / nw
		for i := range v {
			v[i] = w[i] * inv
		}
		if it > 0 && math.Abs(rq-lam) <= powerTol*math.Abs(rq) {
			lam = rq
			break
		}
		lam = rq
	}
	if !(lam > 0) {
		return 0
	}
	return 1 / lam
}

// cholInPlace factors the SPD matrix held row-major in a (n×n) into its
// lower-triangular Cholesky factor, in place. Returns false on a
// non-positive pivot (the matrix is numerically semi-definite). It works
// on a raw slice and never allocates, which the probe's zero-alloc steady
// state requires.
func cholInPlace(a []float64, n int) bool {
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s * inv
		}
	}
	return true
}

// cholSolve solves A·x = b in place on b, given the lower-triangular
// Cholesky factor of A in l (row-major n×n, upper triangle ignored).
func cholSolve(l []float64, n int, b []float64) {
	for i := 0; i < n; i++ { // forward: L·y = b
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * b[k]
		}
		b[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- { // backward: Lᵀ·x = y
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * b[k]
		}
		b[i] = s / l[i*n+i]
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm(a []float64) float64 {
	return math.Sqrt(dot(a, a))
}

func normalize(a []float64) {
	n := norm(a)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
}
