package matrix

import "fmt"

// This file dispatches the two O(k³) loops of the values-only spectral
// pipeline — the AᵀA Gram product and the Householder tridiagonalization in
// internal/linalg — to AVX2 kernels where the CPU has them (amd64 only; see
// kernels_amd64.s), and holds the scalar Householder kernels that run
// everywhere else. The choice is made once, at package init, from CPUID.
//
// The vector kernels are bit-identical to the scalar loops: each vector lane
// carries one output element, and every element goes through the same
// separately rounded multiplies and adds, in the same order, as the scalar
// code (Go on amd64 never fuses a multiply and an add unless asked through
// math.FMA, and the kernels use no FMA instruction). See DESIGN.md §9.

// vectorKernels is true when the AVX2 kernels serve AᵀA and the
// Householder passes.
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

// SymMulVec sets p = G·u, where G is the leading n×n block (n = len(u) =
// len(p)) of the symmetric row-major matrix w with row stride stride. Each
// p[j] sums its terms u[k]·G[j][k] in ascending k: the product of the
// Householder pass, summed in the order of a walk down column j. The scalar
// kernel reads only G's lower triangle; the vector kernel forms p as
// ascending axpys over full rows (G[k][j] stands in for G[j][k]), so w must
// be fully symmetric there, which SymRank2Update keeps.
func SymMulVec(p, w []float64, stride int, u []float64) {
	checkBlock("SymMulVec", w, stride, len(u), len(p))
	if vectorKernels {
		clear(p)
		rowCombination(p, w, stride, u)
		return
	}
	// One pass down the rows of the lower triangle: row j's dot with u
	// gives the leading terms of p[j], and its entries add w[j][k]·u[j] to
	// every p[k], k < j. So p[j] sums its row terms and then its column
	// terms in ascending order, exactly as a walk down column j would.
	for j, uj := range u {
		wj := w[j*stride : j*stride+j]
		pk, uk := p[:len(wj)], u[:len(wj)]
		s := 0.0
		for k, v := range wj {
			s += v * uk[k]
			pk[k] += v * uj
		}
		p[j] = s + w[j*stride+j]*uj
	}
}

// SymRank2Update applies G[j][k] -= u[j]·q[k] + q[j]·u[k] to the leading
// n×n block G (n = len(u) = len(q)) of the row-major matrix w with row
// stride stride: the Householder rank-2 update. The scalar kernel updates
// the lower triangle only, the vector kernel full rows; either way the
// entries SymMulVec reads next stay exact.
func SymRank2Update(w []float64, stride int, u, q []float64) {
	checkBlock("SymRank2Update", w, stride, len(u), len(q))
	if vectorKernels {
		symRank2(w, stride, u, q)
		return
	}
	for j, uj := range u {
		wj := w[j*stride : j*stride+j+1]
		qk, uk := q[:len(wj)], u[:len(wj)]
		qj := q[j]
		for k := range wj {
			wj[k] -= uj*qk[k] + qj*uk[k]
		}
	}
}

// checkBlock panics unless the two vectors have the same length n and w
// holds an n×n block at the given stride.
func checkBlock(op string, w []float64, stride, n, n2 int) {
	if n2 != n {
		panic(fmt.Sprintf("matrix: %s needs vectors of one length, got %d and %d", op, n, n2))
	}
	if n > 0 && (n > stride || (n-1)*stride+n > len(w)) {
		panic(fmt.Sprintf("matrix: %s: %d rows of %d at stride %d overrun %d values", op, n, n, stride, len(w)))
	}
}
