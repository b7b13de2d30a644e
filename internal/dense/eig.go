package dense

import (
	"math"

	"adatm/internal/par"
)

// SymEig computes the eigendecomposition of a symmetric matrix a = V·diag(w)·Vᵀ
// using the cyclic Jacobi method. It returns the eigenvalues w (unordered) and
// the matrix V whose columns are the corresponding orthonormal eigenvectors.
// a is not modified. Intended for the small R×R Gram/Hadamard matrices of
// CP-ALS (R ≤ a few hundred).
func SymEig(a *Matrix) (w []float64, v *Matrix) {
	n := a.Rows
	if a.Cols != n {
		panic("dense: SymEig of non-square matrix")
	}
	// Work on a copy; rotate until off-diagonal mass is negligible.
	s := a.Clone()
	v = Identity(n)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += float64(s.At(p, q) * s.At(p, q))
			}
		}
		if off <= 1e-30*(1+s.FrobeniusNorm()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := s.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := s.At(p, p), s.At(q, q)
				// Rotation angle that annihilates (p, q).
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+float64(tau*tau)))
				} else {
					t = -1 / (-tau + math.Sqrt(1+float64(tau*tau)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				sn := t * c
				// Apply the rotation to rows/columns p and q of s.
				for k := 0; k < n; k++ {
					skp, skq := s.At(k, p), s.At(k, q)
					s.Set(k, p, float64(c*skp)-float64(sn*skq))
					s.Set(k, q, float64(sn*skp)+float64(c*skq))
				}
				for k := 0; k < n; k++ {
					spk, sqk := s.At(p, k), s.At(q, k)
					s.Set(p, k, float64(c*spk)-float64(sn*sqk))
					s.Set(q, k, float64(sn*spk)+float64(c*sqk))
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, float64(c*vkp)-float64(sn*vkq))
					v.Set(k, q, float64(sn*vkp)+float64(c*vkq))
				}
			}
		}
	}
	w = make([]float64, n)
	for i := range w {
		w[i] = s.At(i, i)
	}
	return w, v
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// PseudoInverseSym returns the Moore–Penrose pseudoinverse of a symmetric
// matrix via its eigendecomposition: a⁺ = V·diag(1/w_i for |w_i|>tol)·Vᵀ.
// tol <= 0 selects an automatic tolerance of n·ε·max|w|.
func PseudoInverseSym(a *Matrix, tol float64) *Matrix {
	n := a.Rows
	w, v := SymEig(a)
	if tol <= 0 {
		maxw := 0.0
		for _, x := range w {
			if ax := math.Abs(x); ax > maxw {
				maxw = ax
			}
		}
		tol = float64(n) * 2.22e-16 * maxw
	}
	// a⁺ = Σ_i (1/w_i)·v_i·v_iᵀ over the well-conditioned spectrum.
	inv := New(n, n)
	for i := 0; i < n; i++ {
		if math.Abs(w[i]) <= tol {
			continue
		}
		wi := 1 / w[i]
		for r := 0; r < n; r++ {
			vr := v.At(r, i) * wi
			if vr == 0 {
				continue
			}
			for c := 0; c < n; c++ {
				inv.Data[r*n+c] += float64(vr * v.At(c, i))
			}
		}
	}
	return inv
}

// choleskyInto writes the lower triangle of a's Cholesky factor into l
// (n×n), reading only entries it has written in this call, so l may hold
// an earlier factor. Reports false on a non-positive pivot.
func choleskyInto(a, l *Matrix) bool {
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= float64(l.At(j, k) * l.At(j, k))
		}
		if d <= 0 {
			return false
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= float64(l.At(i, k) * l.At(j, k))
			}
			l.Set(i, j, s/ljj)
		}
	}
	return true
}

// SPDSolver solves x·a = b for every row of b, overwriting b with the
// solutions, where a is symmetric positive definite (the CP-ALS update
// U ← M·H⁺ with H SPD is exactly this with b = M). If the Cholesky
// factorization fails, it falls back to the pseudoinverse. It keeps the
// Cholesky factor, its transpose and the row kernel between calls, so a
// loop of same-size solves allocates nothing (the pseudoinverse fallback
// for a rank-deficient a still allocates). The zero value is ready to use;
// a solver serves one call at a time.
type SPDSolver struct {
	l    *Matrix
	lt   *Matrix // upper triangle of Lᵀ, so the backward pass reads rows
	b    *Matrix
	body func(lo, hi int)
}

// Solve overwrites b with the solutions of x·a = b, computed in the
// solver's buffers; workers controls row-level parallelism.
func (s *SPDSolver) Solve(a *Matrix, b *Matrix, workers int) {
	n := a.Rows
	if b.Cols != n || a.Cols != n {
		panic("dense: SPDSolver.Solve shape mismatch")
	}
	if s.l == nil || s.l.Rows != n {
		s.l, s.lt = New(n, n), New(n, n)
	}
	if !choleskyInto(a, s.l) {
		// Rank-deficient H: fall back to the pseudoinverse product.
		pinv := PseudoInverseSym(a, 0)
		tmp := MatMul(b, pinv, nil, workers)
		b.CopyFrom(tmp)
		return
	}
	for i := 0; i < n; i++ {
		for k := i; k < n; k++ {
			s.lt.Data[i*n+k] = s.l.Data[k*n+i]
		}
	}
	if s.body == nil {
		s.body = s.solveRows
	}
	s.b = b
	par.ForRange(b.Rows, workers, s.body)
	s.b = nil
}

// solveRows solves rows [lo, hi) of the current right-hand side: per row,
// (L Lᵀ) x = rowᵀ (a is symmetric) by a forward then a backward
// substitution. Four rows go through each pass together, one dependency
// chain per row, and the rows left over go one at a time. Either way each
// row takes the same operations in the same order.
func (s *SPDSolver) solveRows(lo, hi int) {
	n := s.l.Rows
	l, lt := s.l.Data, s.lt.Data
	r := lo
	for ; r+4 <= hi; r += 4 {
		x0, x1, x2, x3 := s.b.Row(r), s.b.Row(r+1), s.b.Row(r+2), s.b.Row(r+3)
		// Forward solve L y = row.
		for i := 0; i < n; i++ {
			li := l[i*n : i*n+i+1]
			v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
			for k, lk := range li[:i] {
				v0 -= float64(lk * x0[k])
				v1 -= float64(lk * x1[k])
				v2 -= float64(lk * x2[k])
				v3 -= float64(lk * x3[k])
			}
			d := li[i]
			x0[i], x1[i], x2[i], x3[i] = v0/d, v1/d, v2/d, v3/d
		}
		// Backward solve Lᵀ x = y, reading column i of L as row i of Lᵀ.
		for i := n - 1; i >= 0; i-- {
			ti := lt[i*n : (i+1)*n]
			v0, v1, v2, v3 := x0[i], x1[i], x2[i], x3[i]
			for k := i + 1; k < n; k++ {
				tk := ti[k]
				v0 -= float64(tk * x0[k])
				v1 -= float64(tk * x1[k])
				v2 -= float64(tk * x2[k])
				v3 -= float64(tk * x3[k])
			}
			d := ti[i]
			x0[i], x1[i], x2[i], x3[i] = v0/d, v1/d, v2/d, v3/d
		}
	}
	for ; r < hi; r++ {
		x := s.b.Row(r)
		for i := 0; i < n; i++ {
			li := l[i*n : i*n+i+1]
			v := x[i]
			for k, lk := range li[:i] {
				v -= float64(lk * x[k])
			}
			x[i] = v / li[i]
		}
		for i := n - 1; i >= 0; i-- {
			ti := lt[i*n : (i+1)*n]
			v := x[i]
			for k := i + 1; k < n; k++ {
				v -= float64(ti[k] * x[k])
			}
			x[i] = v / ti[i]
		}
	}
}
