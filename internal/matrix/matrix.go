// Package matrix provides a dense, row-major float64 matrix kernel used by
// every other package in this repository.
//
// The package is deliberately small and self-contained — the standard
// library plus the in-repo internal/parallel pool that the parallel Gram
// kernels fan out on: it implements exactly the operations the
// heterogeneity-measure pipeline needs — construction, element access,
// arithmetic, row/column aggregation, diagonal scaling, permutation,
// submatrix extraction, norms and tolerant comparison. Heavier numerical
// routines (QR, SVD, eigensolvers) live in internal/linalg and build on
// this type.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. All constructors validate their
// inputs and panic on structurally impossible requests (negative dimensions,
// mismatched data lengths); such failures are programming errors, not runtime
// conditions, in line with standard library style (compare math/big).
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// New returns an r×c matrix initialized to zero.
func New(r, c int) *Dense {
	checkDims(r, c)
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromData returns an r×c matrix that adopts data (row-major, length r*c).
// The slice is used directly, not copied.
func NewFromData(r, c int, data []float64) *Dense {
	checkDims(r, c)
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: NewFromData %dx%d requires %d values, got %d", r, c, r*c, len(data)))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return &Dense{}
	}
	r, c := len(rows), len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("matrix: FromRows ragged input: row 0 has %d entries, row %d has %d", c, i, len(row)))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square matrix with d on its diagonal.
func Diag(d []float64) *Dense {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// Constant returns an r×c matrix with every entry equal to v.
func Constant(r, c int, v float64) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = v
	}
	return m
}

func checkDims(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// RawData exposes the backing slice (row-major). Mutating it mutates the
// matrix. Intended for tight loops in internal/linalg.
func (m *Dense) RawData() []float64 { return m.data }

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom overwrites m with the contents of src, which must have the same
// dimensions.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("matrix: CopyFrom dimension mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product a*b.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("matrix: MulVec dimension mismatch %dx%d * len %d", m.rows, m.cols, len(x)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Add returns a+b.
func Add(a, b *Dense) *Dense { return elementwise(a, b, func(x, y float64) float64 { return x + y }) }

// Sub returns a-b.
func Sub(a, b *Dense) *Dense { return elementwise(a, b, func(x, y float64) float64 { return x - y }) }

// Hadamard returns the elementwise product of a and b.
func Hadamard(a, b *Dense) *Dense {
	return elementwise(a, b, func(x, y float64) float64 { return x * y })
}

func elementwise(a, b *Dense, f func(x, y float64) float64) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("matrix: elementwise dimension mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = f(a.data[i], b.data[i])
	}
	return out
}

// Scale multiplies every entry of m by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// Scaled returns a new matrix equal to s*m.
func (m *Dense) Scaled(s float64) *Dense { return m.Clone().Scale(s) }

// Apply replaces every entry v of m with f(i, j, v) in place and returns m.
func (m *Dense) Apply(f func(i, j int, v float64) float64) *Dense {
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			idx := i*m.cols + j
			m.data[idx] = f(i, j, m.data[idx])
		}
	}
	return m
}

// RowSum returns the sum of row i.
func (m *Dense) RowSum(i int) float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: RowSum row %d out of range", i))
	}
	s := 0.0
	for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
		s += v
	}
	return s
}

// ColSum returns the sum of column j.
func (m *Dense) ColSum(j int) float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: ColSum col %d out of range", j))
	}
	s := 0.0
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+j]
	}
	return s
}

// RowSums returns the vector of row sums.
func (m *Dense) RowSums() []float64 {
	out := make([]float64, m.rows)
	m.RowSumsInto(out)
	return out
}

// RowSumsInto writes the row sums into dst (length rows), for callers that
// reuse buffers across iterations.
func (m *Dense) RowSumsInto(dst []float64) {
	if len(dst) != m.rows {
		panic(fmt.Sprintf("matrix: RowSumsInto needs length %d, got %d", m.rows, len(dst)))
	}
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
			s += v
		}
		dst[i] = s
	}
}

// ColSums returns the vector of column sums.
func (m *Dense) ColSums() []float64 {
	out := make([]float64, m.cols)
	m.ColSumsInto(out)
	return out
}

// ColSumsInto writes the column sums into dst (length cols), for callers
// that reuse buffers across iterations.
func (m *Dense) ColSumsInto(dst []float64) {
	if len(dst) != m.cols {
		panic(fmt.Sprintf("matrix: ColSumsInto needs length %d, got %d", m.cols, len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			dst[j] += v
		}
	}
}

// SumsInto writes the row sums into rowSums (length rows) and the column
// sums into colSums (length cols) in one row-major sweep, bit for bit what
// RowSumsInto and ColSumsInto give.
func (m *Dense) SumsInto(rowSums, colSums []float64) {
	if len(rowSums) != m.rows || len(colSums) != m.cols {
		panic(fmt.Sprintf("matrix: SumsInto needs sums of %d and %d, got %d and %d", m.rows, m.cols, len(rowSums), len(colSums)))
	}
	clear(colSums)
	addSums(m.data, rowSums, colSums, false)
}

// addSums writes the sums of the len(rowSums) rows of width len(colSums)
// held in data into rowSums and adds each row into colSums. Four rows go
// together: each keeps its own sum chain, adding its cells in ascending
// column order from zero, so the four chains overlap instead of waiting on
// one another, and each column sum adds the rows in ascending order. The
// sums are thus bit for bit those of RowSumsInto and ColSumsInto. With
// check set it also counts the cells equal to zero, and it stops once it
// meets a cell that is negative or NaN and reports nonNeg false, leaving
// the sums and the count unspecified; without, it reports 0 and true.
func addSums(data, rowSums, colSums []float64, check bool) (zeros int, nonNeg bool) {
	c := len(colSums)
	i := 0
	for ; i+4 <= len(rowSums); i += 4 {
		r0 := data[i*c : (i+1)*c]
		r1 := data[(i+1)*c : (i+2)*c][:len(r0)]
		r2 := data[(i+2)*c : (i+3)*c][:len(r0)]
		r3 := data[(i+3)*c : (i+4)*c][:len(r0)]
		cs := colSums[:len(r0)]
		var s0, s1, s2, s3 float64
		for j, v0 := range r0 {
			v1, v2, v3 := r1[j], r2[j], r3[j]
			if check {
				if !(v0 >= 0 && v1 >= 0 && v2 >= 0 && v3 >= 0) {
					return zeros, false
				}
				if v0 == 0 || v1 == 0 || v2 == 0 || v3 == 0 {
					zeros += zeroCount(v0, v1, v2, v3)
				}
			}
			s0 += v0
			s1 += v1
			s2 += v2
			s3 += v3
			cs[j] = cs[j] + v0 + v1 + v2 + v3
		}
		rowSums[i], rowSums[i+1], rowSums[i+2], rowSums[i+3] = s0, s1, s2, s3
	}
	for ; i < len(rowSums); i++ {
		row := data[i*c : (i+1)*c]
		cs := colSums[:len(row)]
		s := 0.0
		for j, v := range row {
			if check {
				if !(v >= 0) {
					return zeros, false
				}
				if v == 0 {
					zeros++
				}
			}
			s += v
			cs[j] += v
		}
		rowSums[i] = s
	}
	return zeros, true
}

// zeroCount counts the zeros among four cells.
func zeroCount(v0, v1, v2, v3 float64) int {
	n := 0
	for _, v := range [4]float64{v0, v1, v2, v3} {
		if v == 0 {
			n++
		}
	}
	return n
}

// CopySumsInto copies src into dst and forms src's row and column sums in
// the same row-major sweep: the set-up of a Sinkhorn run, which would
// otherwise copy, check, count and sum in five passes over the cells. A nil
// dst takes fresh storage from the pool, as ClonePooled does; any other dst
// is resized in place, reusing its capacity as Reset does but skipping the
// zero fill. rowSums and colSums get bit for bit what SumsInto gives, and
// zeros counts the cells equal to zero. The sweep goes four rows at a time:
// it copies a block, then sums it while it is still in cache. It stops
// once it meets a cell that is negative or NaN and reports nonNeg false;
// the content of dst, of the sums and of zeros is then unspecified.
func CopySumsInto(dst, src *Dense, rowSums, colSums []float64) (out *Dense, zeros int, nonNeg bool) {
	r, c := src.rows, src.cols
	if len(rowSums) != r || len(colSums) != c {
		panic(fmt.Sprintf("matrix: CopySumsInto needs sums of %d and %d, got %d and %d", r, c, len(rowSums), len(colSums)))
	}
	if dst == nil {
		dst = pooledRaw(r * c)
	} else if cap(dst.data) < r*c {
		dst.data = make([]float64, r*c)
	}
	dst.data = dst.data[:r*c]
	dst.rows, dst.cols = r, c
	clear(colSums)
	for i := 0; i < r; i += 4 {
		n := min(4, r-i)
		block := dst.data[i*c : (i+n)*c]
		copy(block, src.data[i*c:(i+n)*c])
		z, ok := addSums(block, rowSums[i:i+n], colSums, true)
		zeros += z
		if !ok {
			return dst, zeros, false
		}
	}
	return dst, zeros, true
}

// ScaleColsRowSums multiplies column j of m by colFactors[j] while
// accumulating the row sums of the scaled matrix into rowSums, all in a
// single pass over the data — the column-normalization half of a Sinkhorn
// iteration fused with the row-sum reduction the next half needs.
func (m *Dense) ScaleColsRowSums(colFactors, rowSums []float64) {
	if len(colFactors) != m.cols {
		panic(fmt.Sprintf("matrix: ScaleColsRowSums needs %d factors, got %d", m.cols, len(colFactors)))
	}
	if len(rowSums) != m.rows {
		panic(fmt.Sprintf("matrix: ScaleColsRowSums needs row buffer %d, got %d", m.rows, len(rowSums)))
	}
	i := 0
	if vectorKernels {
		i = scaleColsRowSumsVector(m.data, m.cols, colFactors, rowSums)
	}
	for ; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := 0.0
		for j, f := range colFactors {
			v := row[j] * f
			row[j] = v
			s += v
		}
		rowSums[i] = s
	}
}

// ScaleRowsColSums multiplies row i of m by rowFactors[i] while accumulating
// the column sums of the scaled matrix into colSums, in a single pass — the
// row-normalization half of a Sinkhorn iteration fused with the column-sum
// reduction the convergence check and the next iteration need.
func (m *Dense) ScaleRowsColSums(rowFactors, colSums []float64) {
	if len(rowFactors) != m.rows {
		panic(fmt.Sprintf("matrix: ScaleRowsColSums needs %d factors, got %d", m.rows, len(rowFactors)))
	}
	if len(colSums) != m.cols {
		panic(fmt.Sprintf("matrix: ScaleRowsColSums needs col buffer %d, got %d", m.cols, len(colSums)))
	}
	clear(colSums)
	if vectorKernels {
		scaleRowsColSums(m.data, m.cols, rowFactors, colSums)
		return
	}
	for i := 0; i < m.rows; i++ {
		f := rowFactors[i]
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			v := row[j] * f
			row[j] = v
			colSums[j] += v
		}
	}
}

// ScaleColsRowSumsRange is ScaleColsRowSums restricted to the subrectangle
// [r0, r1) × [c0, c1): it scales those entries by their column factors and
// accumulates their contribution into rowSums (which the caller zeroes before
// the first tile of a pass). Factor and sum slices are full-size and indexed
// by absolute row/column. Each row's partial sum is resumed from rowSums[i]
// and flushed back after the tile, so a left-to-right tile walk performs the
// exact addition sequence of the whole-row kernel — tiled passes are
// bit-identical to untiled ones (see sinkhorn/tiling.go).
func (m *Dense) ScaleColsRowSumsRange(colFactors, rowSums []float64, r0, r1, c0, c1 int) {
	if len(colFactors) != m.cols {
		panic(fmt.Sprintf("matrix: ScaleColsRowSumsRange needs %d factors, got %d", m.cols, len(colFactors)))
	}
	if len(rowSums) != m.rows {
		panic(fmt.Sprintf("matrix: ScaleColsRowSumsRange needs row buffer %d, got %d", m.rows, len(rowSums)))
	}
	checkRange(r0, r1, m.rows, "row")
	checkRange(c0, c1, m.cols, "column")
	for i := r0; i < r1; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		s := rowSums[i]
		for j := c0; j < c1; j++ {
			v := row[j] * colFactors[j]
			row[j] = v
			s += v
		}
		rowSums[i] = s
	}
}

// ScaleRowsColSumsRange is ScaleRowsColSums restricted to the subrectangle
// [r0, r1) × [c0, c1), accumulating into colSums (caller-zeroed before the
// first tile of a pass). A top-to-bottom tile walk adds each column's
// contributions in the same order as the whole-row kernel, keeping tiled
// passes bit-identical to untiled ones.
func (m *Dense) ScaleRowsColSumsRange(rowFactors, colSums []float64, r0, r1, c0, c1 int) {
	if len(rowFactors) != m.rows {
		panic(fmt.Sprintf("matrix: ScaleRowsColSumsRange needs %d factors, got %d", m.rows, len(rowFactors)))
	}
	if len(colSums) != m.cols {
		panic(fmt.Sprintf("matrix: ScaleRowsColSumsRange needs col buffer %d, got %d", m.cols, len(colSums)))
	}
	checkRange(r0, r1, m.rows, "row")
	checkRange(c0, c1, m.cols, "column")
	for i := r0; i < r1; i++ {
		f := rowFactors[i]
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := c0; j < c1; j++ {
			v := row[j] * f
			row[j] = v
			colSums[j] += v
		}
	}
}

// checkRange validates a half-open [lo, hi) range against a dimension limit.
func checkRange(lo, hi, limit int, dim string) {
	if lo < 0 || hi > limit || lo > hi {
		panic(fmt.Sprintf("matrix: invalid %s range [%d, %d) for limit %d", dim, lo, hi, limit))
	}
}

// Sum returns the sum of all entries.
func (m *Dense) Sum() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v
	}
	return s
}

// Min returns the smallest entry. It panics on an empty matrix.
func (m *Dense) Min() float64 {
	m.checkNonEmpty("Min")
	min := m.data[0]
	for _, v := range m.data[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest entry. It panics on an empty matrix.
func (m *Dense) Max() float64 {
	m.checkNonEmpty("Max")
	max := m.data[0]
	for _, v := range m.data[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

func (m *Dense) checkNonEmpty(op string) {
	if len(m.data) == 0 {
		panic("matrix: " + op + " of empty matrix")
	}
}

// ScaleRows multiplies row i of m by d[i], in place, and returns m.
func (m *Dense) ScaleRows(d []float64) *Dense {
	if len(d) != m.rows {
		panic(fmt.Sprintf("matrix: ScaleRows needs %d factors, got %d", m.rows, len(d)))
	}
	for i := 0; i < m.rows; i++ {
		f := d[i]
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] *= f
		}
	}
	return m
}

// ScaleCols multiplies column j of m by d[j], in place, and returns m.
func (m *Dense) ScaleCols(d []float64) *Dense {
	if len(d) != m.cols {
		panic(fmt.Sprintf("matrix: ScaleCols needs %d factors, got %d", m.cols, len(d)))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] *= d[j]
		}
	}
	return m
}

// PermuteRows returns a new matrix whose row i is m's row perm[i]. perm must
// be a permutation of 0..rows-1.
func (m *Dense) PermuteRows(perm []int) *Dense {
	checkPerm(perm, m.rows, "PermuteRows")
	out := New(m.rows, m.cols)
	for i, p := range perm {
		copy(out.data[i*m.cols:(i+1)*m.cols], m.data[p*m.cols:(p+1)*m.cols])
	}
	return out
}

// PermuteCols returns a new matrix whose column j is m's column perm[j].
func (m *Dense) PermuteCols(perm []int) *Dense {
	checkPerm(perm, m.cols, "PermuteCols")
	out := New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		src := m.data[i*m.cols : (i+1)*m.cols]
		dst := out.data[i*m.cols : (i+1)*m.cols]
		for j, p := range perm {
			dst[j] = src[p]
		}
	}
	return out
}

// PermuteColsInPlace reorders m's columns in place so that column j becomes
// the old column perm[j], using a single row-sized buffer instead of a full
// matrix copy (compare PermuteCols, which allocates rows*cols).
func (m *Dense) PermuteColsInPlace(perm []int) {
	checkPerm(perm, m.cols, "PermuteColsInPlace")
	buf := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, p := range perm {
			buf[j] = row[p]
		}
		copy(row, buf)
	}
}

func checkPerm(perm []int, n int, op string) {
	if len(perm) != n {
		panic(fmt.Sprintf("matrix: %s permutation length %d, want %d", op, len(perm), n))
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			panic(fmt.Sprintf("matrix: %s invalid permutation %v", op, perm))
		}
		seen[p] = true
	}
}

// Submatrix returns a new matrix containing the given rows and columns of m,
// in the order listed. Indices may repeat.
func (m *Dense) Submatrix(rows, cols []int) *Dense {
	out := New(len(rows), len(cols))
	for i, r := range rows {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("matrix: Submatrix row %d out of range", r))
		}
		for j, c := range cols {
			if c < 0 || c >= m.cols {
				panic(fmt.Sprintf("matrix: Submatrix col %d out of range", c))
			}
			out.data[i*out.cols+j] = m.data[r*m.cols+c]
		}
	}
	return out
}

// NormFro returns the Frobenius norm of m.
func (m *Dense) NormFro() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Norm1 returns the maximum absolute column sum.
func (m *Dense) Norm1() float64 {
	max := 0.0
	for j := 0; j < m.cols; j++ {
		s := 0.0
		for i := 0; i < m.rows; i++ {
			s += math.Abs(m.data[i*m.cols+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// NormInf returns the maximum absolute row sum.
func (m *Dense) NormInf() float64 {
	max := 0.0
	for i := 0; i < m.rows; i++ {
		s := 0.0
		for _, v := range m.data[i*m.cols : (i+1)*m.cols] {
			s += math.Abs(v)
		}
		if s > max {
			max = s
		}
	}
	return max
}

// MaxAbs returns the largest absolute entry, or 0 for an empty matrix.
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// EqualTol reports whether a and b have the same shape and all entries differ
// by at most tol.
func EqualTol(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// AllPositive reports whether every entry is strictly positive.
func (m *Dense) AllPositive() bool {
	for _, v := range m.data {
		if !(v > 0) {
			return false
		}
	}
	return true
}

// NonNegative reports whether every entry is >= 0 (NaN fails).
func (m *Dense) NonNegative() bool {
	for _, v := range m.data {
		if !(v >= 0) {
			return false
		}
	}
	return true
}

// HasNaN reports whether any entry is NaN.
func (m *Dense) HasNaN() bool {
	for _, v := range m.data {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}

// String renders the matrix with aligned columns, suitable for logs and test
// failure messages.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%10.5g", m.data[i*m.cols+j])
		}
		b.WriteString("]\n")
	}
	return b.String()
}
