package matrix

import "fmt"

// This file dispatches the two O(k³) loops of the values-only spectral
// pipeline — the AᵀA Gram product and the Householder tridiagonalization in
// internal/linalg — and the two fused passes of a Sinkhorn round
// (ScaleColsRowSums, ScaleRowsColSums) to AVX2 kernels where the CPU has them
// (amd64 only; see kernels_amd64.s), and holds the scalar Householder
// kernel that runs everywhere else. The choice is made once, at package
// init, from CPUID.
//
// The vector kernels are bit-identical to the scalar loops: each vector lane
// carries one output element, and every element goes through the same
// separately rounded multiplies and adds, in the same order, as the scalar
// code (Go on amd64 never fuses a multiply and an add unless asked through
// math.FMA, and the kernels use no FMA instruction). See DESIGN.md §9.

// vectorKernels is true when the AVX2 kernels serve AᵀA, the Householder
// pass and the Sinkhorn passes.
var vectorKernels = cpuHasAVX2()

// VectorKernels reports whether the AVX2 kernels are in use.
func VectorKernels() bool { return vectorKernels }

// UseVectorKernels switches the AVX2 kernels off, or back on where the CPU
// has them, and returns a func that restores the previous setting. It exists
// so tests can hold both paths to the same bits; the setting is
// process-wide, so it must not change while a kernel runs.
func UseVectorKernels(on bool) (restore func()) {
	prev := vectorKernels
	vectorKernels = on && cpuHasAVX2()
	return func() { vectorKernels = prev }
}

// gramRowsVector adds Σ_r x[r][j]·x[r][k], r = 0..p-1 in order, to dd[j][k]
// for every upper-triangle entry (k ≥ j) of the nv×nv row-major matrix dd,
// where x holds p rows of nv values. Full 4×8 tiles run in gramTile4x8; a
// tile row's first column is rounded down to a multiple of 8, so tiles that
// straddle the diagonal also fill some lower-triangle entries, which
// mirrorUpper overwrites. The columns past the last full tile and the last
// nv mod 4 rows take scalar loops with the same term order.
func gramRowsVector(dd []float64, nv int, x []float64, p int) {
	if p == 0 {
		return
	}
	x = x[:p*nv]
	j := 0
	for ; j+4 <= nv; j += 4 {
		k := j &^ 7
		for ; k+8 <= nv; k += 8 {
			gramTile4x8(&dd[j*nv+k], nv, &x[j], &x[k], nv, p)
		}
		gramEdge(dd, nv, x, p, j, j+4, k)
	}
	gramEdge(dd, nv, x, p, j, nv, j)
}

// gramEdge is the scalar remainder of gramRowsVector: rows j0..j1-1, columns
// from max(k0, row) to nv-1.
func gramEdge(dd []float64, nv int, x []float64, p, j0, j1, k0 int) {
	for i := j0; i < j1; i++ {
		for k := max(k0, i); k < nv; k++ {
			s := dd[i*nv+k]
			for r := 0; r < p; r++ {
				s += x[r*nv+i] * x[r*nv+k]
			}
			dd[i*nv+k] = s
		}
	}
}

// ataVector computes dst = aᵀ·a from a's rows directly: the tiles load row
// segments of a, so no transpose is needed. Panels of gramPanel rows keep a
// tile's operands in cache; the tile sums carry through dst from one panel
// to the next, so every entry still sums its rows in ascending order.
func ataVector(dst, a *Dense) {
	m, n := a.Dims()
	if dst.rows != n || dst.cols != n {
		panic("matrix: AtAInto needs a square destination matching a's columns")
	}
	clear(dst.data)
	for i0 := 0; i0 < m; i0 += gramPanel {
		p := minDim(gramPanel, m-i0)
		gramRowsVector(dst.data, n, a.data[i0*n:(i0+p)*n], p)
	}
	mirrorUpper(dst.data, n)
}

// scaleColsRowSumsVector runs the column pass of ScaleColsRowSums on the
// leading rows of the rows×cols matrix data, four at a time, and returns how
// many rows it did (rows&^3); the caller runs the rest. The kernel covers
// columns up to cols&^3 and leaves each row's partial sum in rowSums; the
// loop below then continues every sum over the remaining columns in order,
// so each row still adds its cells in ascending column order.
func scaleColsRowSumsVector(data []float64, cols int, f, rowSums []float64) int {
	rows := len(rowSums) &^ 3
	if rows == 0 {
		return 0
	}
	scaleColsRowSums(data[:rows*cols], cols, f, rowSums[:rows])
	if c4 := cols &^ 3; c4 < cols {
		for i := 0; i < rows; i++ {
			row := data[i*cols+c4 : (i+1)*cols]
			s := rowSums[i]
			for j, fj := range f[c4:] {
				v := row[j] * fj
				row[j] = v
				s += v
			}
			rowSums[i] = s
		}
	}
	return rows
}

// SymRank2MulVec is one Householder step of the tridiagonalization on the
// lower triangle of the leading n×n block G (n = len(v)) of the row-major
// matrix w with row stride stride. It applies the previous step's pending
// rank-2 update, G[j][k] -= u[j]·q[k] + q[j]·u[k] for k ≤ j, and in the same
// pass over each updated row forms p = G'·v on the updated block. Each p[j]
// sums its terms in the order of a walk along row j and then down column j:
// from +0, the row terms G'[j][k]·v[k] in ascending k up to the diagonal,
// then the column terms G'[k][j]·v[k] in ascending k. Only the lower
// triangle is read or written. Zero u and q leave G exact, since
// w − (0·0 + 0·0) == w.
func SymRank2MulVec(w []float64, stride int, u, q, v, p []float64) {
	n := len(v)
	if len(u) != n || len(q) != n || len(p) != n {
		panic(fmt.Sprintf("matrix: SymRank2MulVec needs vectors of one length, got %d, %d, %d and %d", len(u), len(q), len(v), len(p)))
	}
	if n > 0 && (n > stride || (n-1)*stride+n > len(w)) {
		panic(fmt.Sprintf("matrix: SymRank2MulVec: %d rows of %d at stride %d overrun %d values", n, n, stride, len(w)))
	}
	j := 0
	if vectorKernels {
		j = n &^ 3
		symRank2MulVec(w, stride, u, q, v, p[:j])
	}
	// One row at a time: the update of row j's entries, each added to p[j]'s
	// row terms and, times v[j], to the column terms of p[k], k < j. Rows
	// run in ascending order, so every p[k] first gets its own row terms
	// and then its column terms in ascending order.
	for ; j < n; j++ {
		row := w[j*stride : j*stride+j+1]
		uj, qj, vj := u[j], q[j], v[j]
		uk, qk, vk, pk := u[:j], q[:j], v[:j], p[:j]
		s := 0.0
		for k := range pk {
			x := row[k] - (uj*qk[k] + qj*uk[k])
			row[k] = x
			s += x * vk[k]
			pk[k] += x * vj
		}
		x := row[j] - (uj*qj + qj*uj)
		row[j] = x
		p[j] = s + x*vj
	}
}
