package matrix

// This file holds the Gram-matrix kernels behind the values-only spectral
// pipeline in internal/linalg: forming G = AᵀA (or AAᵀ) is the only O(m·n·k)
// step of that pipeline. Both orientations reduce to one kernel, syrkUpper,
// that computes the upper triangle as dot products of pairs of contiguous
// vectors in 4×2 register tiles, then mirrors it onto the lower triangle.
//
// Every output element keeps the summation order of a plain ascending dot
// product: AAᵀ entries sum over a row pair's columns in order, and AᵀA
// entries sum over the input rows in order — the kernel transposes a panel
// of gramPanel input rows at a time and carries each tile's accumulators
// through dst from one panel to the next. The results are therefore
// bit-identical to the textbook loops, whatever the tile or panel size (see
// DESIGN.md §9).

// gramPanel is the number of input rows AᵀA transposes into scratch per
// pass. A tile then streams six panel rows of gramPanel floats (6 KiB),
// which stay in L1 across the tile's inner loop; any panel height gives the
// same bits.
const gramPanel = 128

// Reset reconfigures m in place to an r×c all-zero matrix, reusing the
// backing slice when its capacity allows and allocating only on growth. It
// returns m. This is the resize primitive the linalg/sinkhorn workspaces use
// to recycle scratch matrices across calls of different shapes.
func (m *Dense) Reset(r, c int) *Dense {
	checkDims(r, c)
	n := r * c
	if cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
		for i := range m.data {
			m.data[i] = 0
		}
	}
	m.rows, m.cols = r, c
	return m
}

// AtAInto computes dst = aᵀ·a for an m×n input a; dst must be n×n. Entry
// (j, k) is the dot product of columns j and k, summed over the rows of a in
// order. The panel scratch comes from the matrix pool.
func AtAInto(dst, a *Dense) *Dense {
	panel := pooledRaw(minDim(a.rows, gramPanel) * a.cols)
	ataInto(dst, a, panel.data)
	putRaw(panel)
	return dst
}

// AAtInto computes dst = a·aᵀ for an m×n input a; dst must be m×m. Entry
// (i, j) is the dot product of rows i and j, summed over the columns in
// order.
func AAtInto(dst, a *Dense) *Dense {
	m, n := a.Dims()
	if dst.rows != m || dst.cols != m {
		panic("matrix: AAtInto needs a square destination matching a's rows")
	}
	clear(dst.data)
	syrkUpper(dst.data, m, a.data, n)
	mirrorUpper(dst.data, m)
	return dst
}

// GramInto computes the min-dimension Gram matrix of a — aᵀ·a when a has at
// least as many rows as columns, a·aᵀ otherwise — into dst, which must be
// square with edge min(rows, cols). Both products share a's nonzero singular
// values squared, so values-only spectral consumers always take the smaller
// (and cheaper) eigenproblem.
func GramInto(dst, a *Dense) *Dense {
	if a.cols <= a.rows {
		return AtAInto(dst, a)
	}
	return AAtInto(dst, a)
}

// GramIntoPanel is GramInto with caller-held scratch for the AᵀA panel
// transpose: panel is resized in place (its contents are neither read nor
// kept), so a workspace that evaluates many spectra keeps one buffer
// instead of borrowing from the pool on every call.
func GramIntoPanel(dst, a, panel *Dense) *Dense {
	if a.cols > a.rows {
		return AAtInto(dst, a)
	}
	p := minDim(a.rows, gramPanel)
	if cap(panel.data) < p*a.cols {
		panel.data = make([]float64, p*a.cols)
	}
	panel.rows, panel.cols, panel.data = a.cols, p, panel.data[:p*a.cols]
	ataInto(dst, a, panel.data)
	return dst
}

// ataInto computes dst = aᵀ·a panel by panel: each block of up to gramPanel
// input rows is transposed into scratch, so column j of the block becomes a
// contiguous vector, and its contribution is added to dst's upper triangle.
// Panels run in row order, so every entry sums its terms in row order.
func ataInto(dst, a *Dense, scratch []float64) {
	m, n := a.Dims()
	if dst.rows != n || dst.cols != n {
		panic("matrix: AtAInto needs a square destination matching a's columns")
	}
	clear(dst.data)
	for i0 := 0; i0 < m; i0 += gramPanel {
		p := minDim(gramPanel, m-i0)
		t := scratch[:n*p]
		for r := 0; r < p; r++ {
			for j, v := range a.data[(i0+r)*n : (i0+r+1)*n] {
				t[j*p+r] = v
			}
		}
		syrkUpper(dst.data, n, t, p)
	}
	mirrorUpper(dst.data, n)
}

// syrkUpper adds x·xᵀ to the upper triangle of the nv×nv row-major matrix
// dd, where x holds nv contiguous vectors of length l: dd[j][k] += Σ_r
// x[j][r]·x[k][r] for k ≥ j, with r ascending. Full 4×2 tiles keep eight
// accumulators and six operands in registers; tiles that straddle the
// diagonal also fill a few lower-triangle entries, which mirrorUpper
// overwrites.
func syrkUpper(dd []float64, nv int, x []float64, l int) {
	j := 0
	for ; j+4 <= nv; j += 4 {
		x0 := x[j*l : j*l+l]
		x1 := x[(j+1)*l : (j+1)*l+l]
		x2 := x[(j+2)*l : (j+2)*l+l]
		x3 := x[(j+3)*l : (j+3)*l+l]
		k := j
		for ; k+2 <= nv; k += 2 {
			y0 := x[k*l : k*l+l]
			y1 := x[(k+1)*l : (k+1)*l+l]
			dot4x2(x0, x1, x2, x3, y0, y1, dd[j*nv+k:j*nv+k+2], dd[(j+1)*nv+k:(j+1)*nv+k+2],
				dd[(j+2)*nv+k:(j+2)*nv+k+2], dd[(j+3)*nv+k:(j+3)*nv+k+2])
		}
		if k < nv { // odd edge: the last column alone
			y := x[k*l : k*l+l]
			a0, a1, a2, a3 := x0[:len(y)], x1[:len(y)], x2[:len(y)], x3[:len(y)]
			s0, s1, s2, s3 := dd[j*nv+k], dd[(j+1)*nv+k], dd[(j+2)*nv+k], dd[(j+3)*nv+k]
			for r, b := range y {
				s0 += a0[r] * b
				s1 += a1[r] * b
				s2 += a2[r] * b
				s3 += a3[r] * b
			}
			dd[j*nv+k], dd[(j+1)*nv+k], dd[(j+2)*nv+k], dd[(j+3)*nv+k] = s0, s1, s2, s3
		}
	}
	for ; j < nv; j++ { // the last nv mod 4 rows, one dot product per entry
		xj := x[j*l : j*l+l]
		for k := j; k < nv; k++ {
			y := x[k*l : k*l+l]
			a := xj[:len(y)]
			s := dd[j*nv+k]
			for r, b := range y {
				s += a[r] * b
			}
			dd[j*nv+k] = s
		}
	}
}

// dot4x2 adds the eight dot products of a0..a3 with b0 and b1 to the tile
// rows d0..d3 (two entries each). It is a separate function so the register
// allocator sees only the tile's own values: eight accumulators and the six
// vector pointers stay in registers for the whole loop.
func dot4x2(a0, a1, a2, a3, b0, b1, d0, d1, d2, d3 []float64) {
	s00, s01 := d0[0], d0[1]
	s10, s11 := d1[0], d1[1]
	s20, s21 := d2[0], d2[1]
	s30, s31 := d3[0], d3[1]
	b1 = b1[:len(b0)]
	a0, a1, a2, a3 = a0[:len(b0)], a1[:len(b0)], a2[:len(b0)], a3[:len(b0)]
	for r, u := range b0 {
		w := b1[r]
		v := a0[r]
		s00 += v * u
		s01 += v * w
		v = a1[r]
		s10 += v * u
		s11 += v * w
		v = a2[r]
		s20 += v * u
		s21 += v * w
		v = a3[r]
		s30 += v * u
		s31 += v * w
	}
	d0[0], d0[1] = s00, s01
	d1[0], d1[1] = s10, s11
	d2[0], d2[1] = s20, s21
	d3[0], d3[1] = s30, s31
}

// mirrorUpper copies the strict upper triangle of the n×n row-major matrix d
// onto its lower triangle.
func mirrorUpper(d []float64, n int) {
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			d[i*n+j] = d[j*n+i]
		}
	}
}

func minDim(a, b int) int {
	if a < b {
		return a
	}
	return b
}
