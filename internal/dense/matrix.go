// Package dense implements the small dense linear-algebra kernel set that
// CP-ALS needs: row-major matrices, Gram products, Hadamard products,
// symmetric eigendecomposition (cyclic Jacobi), SPD Cholesky solves, and the
// Moore–Penrose pseudoinverse of small symmetric matrices.
//
// Factor matrices in CP-ALS are tall and skinny (I_n × R with R ≤ 256), and
// everything quadratic in R happens on R × R matrices. The two kernels the
// ALS loop runs on every mode update over a whole factor are blocked for
// registers: the Gram computes the upper triangle four columns at a time
// over cache-sized row chunks and mirrors it, and the SPD solve substitutes
// four right-hand-side rows per pass against a kept transpose of L. Both are
// pure Go and bit-identical to row-at-a-time loops: every output element
// keeps its association, and every product is rounded by a float64
// conversion so that no architecture fuses it into an FMA (scripts/ci.sh
// checks the arm64 build). There is no SIMD here.
package dense

import (
	"fmt"
	"math"
	"math/rand"

	"adatm/internal/par"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equally sized rows (copied).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("dense: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Random returns a Rows×Cols matrix with entries uniform in [0, 1), drawn
// from rng. CP-ALS initialization uses non-negative entries so that the first
// Gram matrices are well conditioned.
func Random(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("dense: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero clears every entry.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every entry to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and n have the same shape and entries within tol.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference; shapes
// must match.
func (m *Matrix) MaxAbsDiff(n *Matrix) float64 {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic("dense: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i := range m.Data {
		if d := math.Abs(m.Data[i] - n.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// FrobeniusNorm returns sqrt(sum of squares) of the entries.
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Gram computes AᵀA into out (Cols×Cols), parallelizing over the rows of A
// with per-worker accumulators summed in worker order. out may be nil, in
// which case a fresh matrix is allocated. Returns out.
func Gram(a *Matrix, out *Matrix, workers int) *Matrix {
	var s GramScratch
	return s.Gram(a, out, workers)
}

// GramScratch keeps Gram's per-worker accumulators and row kernel between
// calls, so a loop taking many Grams of one width allocates them once. The
// zero value is ready to use; a scratch serves one call at a time.
type GramScratch struct {
	a    *Matrix
	acc  [][]float64
	body func(worker, lo, hi int)
}

// Gram is the package-level Gram computed in the scratch's buffers.
func (s *GramScratch) Gram(a *Matrix, out *Matrix, workers int) *Matrix {
	c := a.Cols
	if out == nil {
		out = New(c, c)
	}
	if out.Rows != c || out.Cols != c {
		panic("dense: Gram output shape mismatch")
	}
	out.Zero()
	w := workers
	if w <= 0 {
		w = par.MaxWorkers()
	}
	// ForWorker runs one block on each of min(w, rows) workers.
	used := min(w, a.Rows)
	for len(s.acc) < used {
		s.acc = append(s.acc, nil)
	}
	for i, acc := range s.acc[:used] {
		if len(acc) != c*c {
			s.acc[i] = make([]float64, c*c)
		} else {
			clear(acc)
		}
	}
	if s.body == nil {
		s.body = s.accumulate
	}
	s.a = a
	par.ForWorker(a.Rows, w, s.body)
	s.a = nil
	for _, acc := range s.acc[:used] {
		for i, v := range acc {
			out.Data[i] += v
		}
	}
	// Every sum starts at +0 and so never ends at -0, and a product with
	// a zero factor adds a signed zero, which changes no such sum: (q, p)
	// and (p, q) are equal bit for bit whichever of the two entries the
	// rows skipped.
	for p := 1; p < c; p++ {
		for q := 0; q < p; q++ {
			out.Data[p*c+q] = out.Data[q*c+p]
		}
	}
	return out
}

// gramChunk is the byte size of the row chunks accumulate streams: small
// enough that a chunk stays in L1 across its passes.
const gramChunk = 16 << 10

// accumulate adds rows [lo, hi) of the current matrix's AᵀA into the
// worker's accumulator, in the entries (p, q) with q in or after the
// four-column block that holds p; Gram mirrors the upper triangle into the
// lower one. The rows go in chunks that stay in cache. Within a chunk,
// each (p, block) pair keeps its four sums in registers while it streams
// the rows in order, so every entry adds the same products in the same
// order as a row-at-a-time loop, skipping the rows whose entry p is zero.
// Columns past the last full block take one sum each.
func (s *GramScratch) accumulate(worker, lo, hi int) {
	a, acc := s.a, s.acc[worker]
	c := a.Cols
	step := max(1, gramChunk/(8*c)) * c
	for base := lo * c; base < hi*c; base += step {
		gramRows(acc, a.Data[base:min(base+step, hi*c)], c)
	}
}

// gramRows is accumulate's pass over one chunk of whole rows of width c.
func gramRows(acc, rows []float64, c int) {
	full := c &^ 3
	for p := 0; p < c; p++ {
		accRow := acc[p*c : (p+1)*c]
		q := p &^ 3
		for ; q < full; q += 4 {
			s0, s1, s2, s3 := accRow[q], accRow[q+1], accRow[q+2], accRow[q+3]
			for i := 0; i < len(rows); i += c {
				rp := rows[i+p]
				if rp == 0 {
					continue
				}
				x := rows[i+q : i+q+4 : i+q+4]
				s0 += float64(rp * x[0])
				s1 += float64(rp * x[1])
				s2 += float64(rp * x[2])
				s3 += float64(rp * x[3])
			}
			accRow[q], accRow[q+1], accRow[q+2], accRow[q+3] = s0, s1, s2, s3
		}
		for ; q < c; q++ {
			sum := accRow[q]
			for i := 0; i < len(rows); i += c {
				if rp := rows[i+p]; rp != 0 {
					sum += float64(rp * rows[i+q])
				}
			}
			accRow[q] = sum
		}
	}
}

// Hadamard computes the element-wise product a .* b into out (all same
// shape). out may alias a or b, or be nil. Returns out.
func Hadamard(a, b, out *Matrix) *Matrix {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("dense: Hadamard shape mismatch")
	}
	if out == nil {
		out = New(a.Rows, a.Cols)
	}
	if out.Rows != a.Rows || out.Cols != a.Cols {
		panic("dense: Hadamard output shape mismatch")
	}
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// HadamardAll multiplies all the given matrices element-wise into a fresh
// matrix. Panics if the list is empty or shapes differ.
func HadamardAll(ms []*Matrix) *Matrix {
	if len(ms) == 0 {
		panic("dense: HadamardAll of empty list")
	}
	out := ms[0].Clone()
	for _, m := range ms[1:] {
		Hadamard(out, m, out)
	}
	return out
}

// MatMul computes a·b into out (a.Rows × b.Cols), parallelizing over the
// rows of a. out may be nil. Returns out.
func MatMul(a, b, out *Matrix, workers int) *Matrix {
	if a.Cols != b.Rows {
		panic("dense: MatMul inner dimension mismatch")
	}
	if out == nil {
		out = New(a.Rows, b.Cols)
	}
	if out.Rows != a.Rows || out.Cols != b.Cols {
		panic("dense: MatMul output shape mismatch")
	}
	if out == a || out == b {
		panic("dense: MatMul output must not alias an input")
	}
	par.ForRange(a.Rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := range orow {
				orow[j] = 0
			}
			for k, av := range arow {
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bv := range brow {
					orow[j] += float64(av * bv)
				}
			}
		}
	})
	return out
}

// ColumnNorms returns the Euclidean norm of every column.
func ColumnNorms(m *Matrix) []float64 {
	norms := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			norms[j] += float64(v * v)
		}
	}
	for j := range norms {
		norms[j] = math.Sqrt(norms[j])
	}
	return norms
}

// NormalizeColumns scales each column of m to unit Euclidean norm and
// returns the original norms. Zero columns are left untouched and report a
// norm of 0 so callers can treat the component as dead.
func NormalizeColumns(m *Matrix) []float64 {
	norms := ColumnNorms(m)
	inv := make([]float64, m.Cols)
	for j, n := range norms {
		if n > 0 {
			inv[j] = 1 / n
		} else {
			inv[j] = 1 // leave zero columns as-is
		}
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= inv[j]
		}
	}
	return norms
}
