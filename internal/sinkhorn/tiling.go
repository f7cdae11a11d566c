package sinkhorn

import (
	"context"
	"fmt"
	"math"

	"repro/internal/matrix"
)

// This file hosts two unrelated-but-namesake tilings:
//
//   - the Appendix A square-tiling construction (BalanceViaTiling), kept as
//     an independent cross-check of the direct rectangular iteration, and
//   - the cache-oblivious tiled balance passes (ScaleColsRowSumsTiled /
//     ScaleRowsColSumsTiled) that Balance switches to for fleet-sized
//     matrices, where a whole row no longer fits the cache hierarchy
//     comfortably and the factor/sum vectors alone run to hundreds of
//     kilobytes.
//
// The tiled passes recurse on the larger dimension until a tile is at most
// balanceTileCells cells (≈¼ MiB — L2-sized), then run the fused
// scale+reduce range kernels of internal/matrix on the leaf. Because the
// recursion visits row ranges top-to-bottom and column ranges left-to-right,
// every row sum accumulates in increasing column order and every column sum
// in increasing row order — the exact addition sequences of the whole-row
// kernels — so a tiled pass is bit-identical to an untiled one and the
// switchover threshold cannot change any balanced matrix (see DESIGN.md §14).

// balanceTileCells bounds a leaf tile of the cache-oblivious recursion:
// 32 Ki cells = 256 KiB of float64, sized to a typical L2, so the leaf's
// rows, its factor slice segment and its sum slice segment stay resident
// while the kernel streams the tile.
const balanceTileCells = 32 * 1024

// tiledBalanceMin is the matrix size (in cells) at which Balance
// switches its fused passes to the tiled walk. 2 Mi cells is 16 MiB — past
// any L2 and into last-level-cache territory, where the tiled walk starts
// paying for its recursion. Below it the plain row-streaming passes are
// already cache-resident. Identical results either way.
const tiledBalanceMin = 2 << 20

// ScaleColsRowSumsTiled is matrix.ScaleColsRowSums as a cache-oblivious
// tiled walk: scale every column j of w by colFactors[j] and leave the row
// sums of the scaled matrix in rowSums. Bit-identical to the untiled kernel.
func ScaleColsRowSumsTiled(w *matrix.Dense, colFactors, rowSums []float64) {
	for i := range rowSums {
		rowSums[i] = 0
	}
	recurseTiles(0, w.Rows(), 0, w.Cols(), func(r0, r1, c0, c1 int) {
		w.ScaleColsRowSumsRange(colFactors, rowSums, r0, r1, c0, c1)
	})
}

// ScaleRowsColSumsTiled is matrix.ScaleRowsColSums as a cache-oblivious
// tiled walk: scale every row i of w by rowFactors[i] and leave the column
// sums of the scaled matrix in colSums. Bit-identical to the untiled kernel.
func ScaleRowsColSumsTiled(w *matrix.Dense, rowFactors, colSums []float64) {
	for j := range colSums {
		colSums[j] = 0
	}
	recurseTiles(0, w.Rows(), 0, w.Cols(), func(r0, r1, c0, c1 int) {
		w.ScaleRowsColSumsRange(rowFactors, colSums, r0, r1, c0, c1)
	})
}

// recurseTiles walks the subrectangle [r0,r1)×[c0,c1) in cache-oblivious
// order: halve the larger dimension until the tile fits balanceTileCells,
// visiting the top/left half before the bottom/right one. The in-order walk
// is what keeps the tiled passes bit-identical to the row-streaming kernels.
func recurseTiles(r0, r1, c0, c1 int, leaf func(r0, r1, c0, c1 int)) {
	rows, cols := r1-r0, c1-c0
	if rows == 0 || cols == 0 {
		return
	}
	if rows*cols <= balanceTileCells || (rows == 1 && cols == 1) {
		leaf(r0, r1, c0, c1)
		return
	}
	if rows >= cols {
		mid := r0 + rows/2
		recurseTiles(r0, mid, c0, c1, leaf)
		recurseTiles(mid, r1, c0, c1, leaf)
		return
	}
	mid := c0 + cols/2
	recurseTiles(r0, r1, c0, mid, leaf)
	recurseTiles(r0, r1, mid, c1, leaf)
}

// BalanceViaTiling standardizes a rectangular positive matrix using the
// construction of the paper's Appendix A (proof of Theorem 1): tile the T×M
// matrix into an (M·T/g)×(T·M/g) square array of copies (g = gcd(T, M), so
// the tiling is the smallest square multiple), balance that square matrix to
// doubly stochastic form with the classic square Sinkhorn iteration, and
// read the rectangular scaling factors back off the block structure.
//
// The paper uses this construction only as an existence proof — the direct
// rectangular iteration of Balance is how it computes standard forms — but
// implementing it provides an independent cross-check: both paths must
// produce the same standard matrix (D₁ and D₂ are unique up to reciprocal
// scalars). It is exposed for that purpose and exercised in tests and the
// ablation experiment.
func BalanceViaTiling(a *matrix.Dense, opt Options) (*Result, error) {
	t, m := a.Dims()
	if t == 0 || m == 0 {
		return nil, fmt.Errorf("sinkhorn: empty matrix")
	}
	if !a.AllPositive() {
		return nil, fmt.Errorf("sinkhorn: BalanceViaTiling requires a strictly positive matrix")
	}
	if opt.RowTarget <= 0 || opt.ColTarget <= 0 {
		return nil, fmt.Errorf("sinkhorn: targets must be positive")
	}
	if total := float64(t) * opt.RowTarget; math.Abs(total-float64(m)*opt.ColTarget) > 1e-9*total {
		return nil, fmt.Errorf("sinkhorn: inconsistent targets")
	}
	square, blockRows, blockCols := tileSquare(a)
	tol := opt.Tol
	if tol <= 0 {
		tol = DefaultTol
	}
	// Tighter tolerance on the square problem so block-averaging error stays
	// below the caller's tolerance.
	sq, err := Balance(context.Background(), square, Options{RowTarget: 1, ColTarget: 1, Tol: tol / 10, MaxIter: opt.MaxIter})
	if err != nil {
		return nil, fmt.Errorf("sinkhorn: tiled square balance: %w", err)
	}
	// Per Appendix A, the square scalings restricted to one block row/column
	// are (up to a scalar) the rectangular scalings. Average the copies for
	// numerical robustness, then rescale to the requested targets.
	d1 := make([]float64, t)
	for i := 0; i < t; i++ {
		s := 0.0
		for br := 0; br < blockRows; br++ {
			s += sq.D1[br*t+i]
		}
		d1[i] = s / float64(blockRows)
	}
	d2 := make([]float64, m)
	for j := 0; j < m; j++ {
		s := 0.0
		for bc := 0; bc < blockCols; bc++ {
			s += sq.D2[bc*m+j]
		}
		d2[j] = s / float64(blockCols)
	}
	scaled := a.Clone().ScaleRows(d1).ScaleCols(d2)
	// The block structure guarantees equal row sums and equal column sums;
	// one global factor aligns them with the requested targets.
	mean := scaled.Sum() / (float64(t) * opt.RowTarget)
	factor := 1 / mean
	scaled.Scale(factor)
	matrix.VecScale(d1, factor)
	res := &Result{
		Scaled:     scaled,
		D1:         d1,
		D2:         d2,
		Iterations: sq.Iterations,
		Converged:  true,
	}
	res.MaxDeviation = maxDeviation(scaled, opt.RowTarget, opt.ColTarget)
	if res.MaxDeviation >= tol*10 {
		res.Converged = false
		return res, fmt.Errorf("%w: tiling residual %g", ErrNotConverged, res.MaxDeviation)
	}
	return res, nil
}

// tileSquare builds the Appendix A square tiling of a T×M matrix: a
// (M/g)×(T/g) arrangement of copies (g = gcd(T, M)), n×n with n = T·M/g.
// blockRows copies are stacked vertically, blockCols side by side.
func tileSquare(a *matrix.Dense) (square *matrix.Dense, blockRows, blockCols int) {
	t, m := a.Dims()
	g := gcd(t, m)
	blockRows, blockCols = m/g, t/g
	n := t * blockRows
	square = matrix.New(n, n)
	for br := 0; br < blockRows; br++ {
		for bc := 0; bc < blockCols; bc++ {
			for i := 0; i < t; i++ {
				for j := 0; j < m; j++ {
					square.Set(br*t+i, bc*m+j, a.At(i, j))
				}
			}
		}
	}
	return square, blockRows, blockCols
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
