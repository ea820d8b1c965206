// Package mat provides the small dense linear-algebra kernel used by the
// learning components of the MoSConS reproduction (the LSTM inference models
// and the gradient-boosted trees). It is deliberately minimal: row-major
// float64 matrices with the handful of operations neural-network training
// needs, implemented with bounds-checked shapes so dimension bugs fail fast.
//
// Non-finite policy: every kernel follows IEEE-754 propagation — a NaN or
// Inf operand always reaches the result (0×Inf = NaN, 0×NaN = NaN), even
// when the other operand is zero. No kernel may skip work in a way that
// could swallow a non-finite contribution; an overflowing gradient must
// surface as NaN/Inf at the output, not silently vanish because it was
// multiplied by a structural zero. This matters most for the float32
// training fast path, which can overflow where float64 did not.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Matrix {
	checkDims(rows, cols)
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice returns a matrix that adopts data as its backing storage.
// len(data) must equal rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	checkDims(rows, cols)
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// checkDims rejects negative shapes and shapes whose element count
// overflows int — without the product guard, rows*cols wraps around, the
// backing slice gets a wrong (possibly tiny) size, and indexing mis-maps
// instead of failing fast.
func checkDims(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	if cols != 0 && rows > math.MaxInt/cols {
		panic(fmt.Sprintf("mat: dimensions %dx%d overflow int", rows, cols))
	}
}

// Randn returns a matrix with entries drawn from N(0, scale²).
func Randn(rows, cols int, scale float64, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * scale
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.Data[i*m.Cols+j] = v
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range [0,%d)", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element of m to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Shape returns the (rows, cols) pair.
func (m *Matrix) Shape() (int, int) { return m.Rows, m.Cols }

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

func (m *Matrix) checkSameShape(n *Matrix, op string) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, n.Rows, n.Cols))
	}
}

// Mul computes a*b and returns a new matrix. Every a[i][k]*b[k][j] product
// is accumulated — there is no zero-skip shortcut — so a non-finite entry in
// either operand propagates to the result per the package policy.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec computes a*x for a column vector x (len(x) == a.Cols).
func MulVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("mat: mulvec shape mismatch %dx%d * %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		out[i] = sum
	}
	return out
}

// MulVecT computes aᵀ*x for a column vector x (len(x) == a.Rows).
func MulVecT(a *Matrix, x []float64) []float64 {
	out := make([]float64, a.Cols)
	MulVecTInto(out, a, x)
	return out
}

// MulVecInto computes dst = a*x without allocating (len(dst) == a.Rows).
// Each row's products are accumulated in column order, so the result is
// bit-identical to MulVec.
func MulVecInto(dst []float64, a *Matrix, x []float64) {
	if a.Cols != len(x) || a.Rows != len(dst) {
		panic(fmt.Sprintf("mat: mulvecinto shape mismatch %d = %dx%d * %d", len(dst), a.Rows, a.Cols, len(x)))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		dst[i] = sum
	}
}

// MulVecAccum computes dst += a*x without allocating. Each row's product is
// summed before being added to dst, so the result is bit-identical to
// AddVec(dst, MulVec(a, x)).
func MulVecAccum(dst []float64, a *Matrix, x []float64) {
	if a.Cols != len(x) || a.Rows != len(dst) {
		panic(fmt.Sprintf("mat: mulvecaccum shape mismatch %d += %dx%d * %d", len(dst), a.Rows, a.Cols, len(x)))
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		dst[i] += sum
	}
}

// MulVecTInto computes dst = aᵀ*x without allocating (len(dst) == a.Cols),
// with the same accumulation order as MulVecT. Rows whose x entry is zero
// are still accumulated so non-finite matrix entries propagate.
func MulVecTInto(dst []float64, a *Matrix, x []float64) {
	if a.Rows != len(x) || a.Cols != len(dst) {
		panic(fmt.Sprintf("mat: mulvecTinto shape mismatch %d = %dx%dᵀ * %d", len(dst), a.Rows, a.Cols, len(x)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, xv := range x {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			dst[j] += v * xv
		}
	}
}

// AddOuter accumulates the outer product x*yᵀ into m (m += x yᵀ). Zero x
// entries still multiply through so a non-finite y propagates (adding the
// resulting ±0 product cannot change any finite accumulator that training
// can produce: sums seeded from +0 never round to -0).
func (m *Matrix) AddOuter(x, y []float64) {
	if m.Rows != len(x) || m.Cols != len(y) {
		panic(fmt.Sprintf("mat: addouter shape mismatch %dx%d += %dx%d", m.Rows, m.Cols, len(x), len(y)))
	}
	for i, xv := range x {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yv := range y {
			row[j] += xv * yv
		}
	}
}

// Add computes m += n in place.
func (m *Matrix) Add(n *Matrix) {
	m.checkSameShape(n, "add")
	for i, v := range n.Data {
		m.Data[i] += v
	}
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// ClipInPlace clamps every element of m to [-limit, limit].
func (m *Matrix) ClipInPlace(limit float64) {
	for i, v := range m.Data {
		if v > limit {
			m.Data[i] = limit
		} else if v < -limit {
			m.Data[i] = -limit
		}
	}
}
