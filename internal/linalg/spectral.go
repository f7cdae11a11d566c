package linalg

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/obs"
)

// This file implements the values-only spectral fast path: the task-machine
// affinity measure (TMA) needs only the singular values σ of the
// standard-form ECS matrix, never its singular vectors, so paying for a full
// SVD per evaluation is waste. Instead the m×n input is reduced to its
// min-dimension Gram matrix G (σ² are G's eigenvalues), G is
// Householder-tridiagonalized, and the tridiagonal eigenvalues are extracted
// with the root-free QL iteration — O(k³) on k = min(m, n) with no vector
// accumulation, versus the O(m·n·k) per sweep × many sweeps of the
// one-sided Jacobi SVD.
//
// The path is held to a written accuracy contract (DESIGN.md §9): on a
// standard form (σ₁ = 1), every eigenvalue σᵢ² of G lies within 4·k·ε of
// the Jacobi SVD's.
//
// The trade: forming G squares the condition number, so singular values below
// about √ε·σ₁ carry halved relative precision, and eigenvalues within
// k·ε·σ₁² of zero are indistinguishable from rank deficiency. Both effects
// are handled by clamping: eigenvalues below the k·ε·λmax noise floor (in
// particular every tiny negative produced by roundoff on rank-deficient
// inputs) are flushed to exact zeros before the square root, so the path can
// never emit NaN. For TMA this is the right trade — the standard form pins
// σ₁ = 1 and the measure averages O(1) values — while consumers that need
// factors (affinity groups, the ablation study) keep the Jacobi/Golub-Reinsch
// paths, which also serve as the accuracy oracle in tests.

const macheps = 2.220446049250313e-16

// Workspace carries the scratch state of the values-only spectral pipeline —
// the Gram matrix, the Gram kernel's panel transpose and the tridiagonal
// diagonals — so sweeps that evaluate thousands of spectra reuse one
// allocation set. A Workspace is not safe for concurrent use; use one per
// goroutine (GetWorkspace/PutWorkspace pool them across trials).
type Workspace struct {
	gram, panel *matrix.Dense
	d, e        []float64
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{gram: matrix.New(0, 0), panel: matrix.New(0, 0)} }

var workspacePool = sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace fetches a spectral workspace from the shared pool.
func GetWorkspace() *Workspace { return workspacePool.Get().(*Workspace) }

// PutWorkspace returns a workspace to the shared pool. The caller must not
// use ws afterwards.
func PutWorkspace(ws *Workspace) { workspacePool.Put(ws) }

// vecs returns the workspace's diagonal and off-diagonal buffers at length n.
func (ws *Workspace) vecs(n int) (d, e []float64) {
	if cap(ws.d) < n {
		ws.d = make([]float64, n)
		ws.e = make([]float64, n)
	}
	return ws.d[:n], ws.e[:n]
}

// SingularValues returns the singular values of a in descending order via the
// Gram + tridiagonal QL fast path. ws may be nil, in which case a pooled
// workspace is used for the duration of the call. The result is freshly
// allocated and owned by the caller.
func SingularValues(a *matrix.Dense, ws *Workspace) []float64 {
	return AppendSingularValues(nil, a, ws)
}

// SingularValuesCtx is SingularValues with stage tracing: when ctx carries
// an obs.Trace, the Gram formation and the tridiagonal eigensolve are
// recorded as the "gram" and "eigensolve" spans.
func SingularValuesCtx(ctx context.Context, a *matrix.Dense, ws *Workspace) []float64 {
	return appendSingularValues(obs.FromContext(ctx), nil, a, ws)
}

// SingularValuesPar is SingularValues under its former worker-budget
// signature; workers is ignored. The spectral pipeline is serial: at every
// measured size the serial kernels beat the retired parallel ones (DESIGN.md
// §14).
func SingularValuesPar(a *matrix.Dense, ws *Workspace, workers int) []float64 {
	return AppendSingularValues(nil, a, ws)
}

// AppendSingularValues appends the descending singular values of a to dst
// and returns the extended slice, so hot loops can reuse one result buffer
// across calls (pass dst[:0] to overwrite). ws may be nil (a pooled
// workspace is borrowed).
func AppendSingularValues(dst []float64, a *matrix.Dense, ws *Workspace) []float64 {
	return appendSingularValues(nil, dst, a, ws)
}

// appendSingularValues is the shared implementation; tr may be nil (the
// untraced fast path — span calls on a nil trace are free).
func appendSingularValues(tr *obs.Trace, dst []float64, a *matrix.Dense, ws *Workspace) []float64 {
	m, n := a.Dims()
	k := minInt(m, n)
	if k == 0 {
		return dst
	}
	start := len(dst)
	if ws == nil {
		ws = GetWorkspace()
		defer PutWorkspace(ws)
	}
	sp := tr.StartSpan("gram")
	g := matrix.GramIntoPanel(ws.gram.Reset(k, k), a, ws.panel)
	sp.End()
	sp = tr.StartSpan("eigensolve")
	d, e := ws.vecs(k)
	tridiagonalize(g, d, e)
	if !tqlRootFree(d, e) {
		// The QL budget essentially never trips; fall back to the Jacobi SVD
		// oracle rather than return a partial spectrum.
		eigenFallbacks.Add(1)
		res := append(dst, SVDJacobi(a).S...)
		sp.End()
		return res
	}
	// d now holds the eigenvalues of G, unordered. Anything at or below the
	// roundoff noise floor of the Gram formation — including the small
	// negatives rank-deficient inputs produce — is an exact zero of the
	// underlying spectrum; clamp before the square root so σ is never NaN.
	lmax := 0.0
	for _, v := range d {
		if v > lmax {
			lmax = v
		}
	}
	floor := float64(k) * macheps * lmax
	for _, v := range d {
		if v <= floor {
			v = 0
		}
		dst = append(dst, math.Sqrt(v))
	}
	sortDescending(dst[start:])
	sp.End()
	return dst
}

// sortDescending sorts x in place without allocating; the spectra here are
// tiny (k = min tasks/machines), so insertion sort beats sort.Slice and its
// closure allocation.
func sortDescending(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] < v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}

// tridiagonalize reduces the symmetric matrix g (destroyed) to tridiagonal
// form by Householder reflections, writing the diagonal to d and the
// subdiagonal to e[1:] (e[0] = 0). This is the classic tred2 reduction with
// the eigenvector accumulation removed — the QL stage only needs values.
// g must be fully symmetric: the two O(l²) loops of each step run in
// matrix.SymMulVec and matrix.SymRank2Update, which read full rows on the
// AVX2 path and the lower triangle otherwise, and give the bits of the
// column-walk tred2 either way (see DESIGN.md §9).
func tridiagonalize(g *matrix.Dense, d, e []float64) {
	n := g.Rows()
	w := g.RawData()
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for _, v := range w[i*n : i*n+l+1] {
				scale += math.Abs(v)
			}
			if scale == 0 {
				e[i] = w[i*n+l]
			} else {
				row := w[i*n : i*n+l+1]
				inv := 1 / scale
				for k, v := range row {
					v *= inv
					row[k] = v
					h += v * v
				}
				f := row[l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				row[l] = f - g
				// Form p = G·u in e[0..l] (e doubles as scratch for indices
				// below i; each slot is rewritten before the outer loop reads
				// it as a subdiagonal), then q = p/h − (uᵀp/2h)·u, then the
				// rank-2 update G −= u·qᵀ + q·uᵀ.
				matrix.SymMulVec(e[:l+1], w, n, row)
				f = 0.0
				for j := 0; j <= l; j++ {
					e[j] /= h
					f += e[j] * row[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					e[j] -= hh * row[j]
				}
				matrix.SymRank2Update(w, n, row, e[:l+1])
			}
		} else {
			e[i] = w[i*n+l]
		}
	}
	e[0] = 0
	for i := 0; i < n; i++ {
		d[i] = w[i*n+i]
	}
}

// qlMaxIter is the per-eigenvalue iteration budget of tqlRootFree. Tests
// lower it to drive the Jacobi fallback.
var qlMaxIter = 50

// eigenFallbacks counts spectra whose QL iteration tripped its budget and
// fell back to the Jacobi SVD, process-wide.
var eigenFallbacks atomic.Uint64

// EigensolverFallbacks reports how many spectra this process computed with
// the Jacobi SVD because the root-free QL iteration did not converge within
// its budget.
func EigensolverFallbacks() uint64 { return eigenFallbacks.Load() }

// tqlRootFree finds all eigenvalues of the symmetric tridiagonal matrix with
// diagonal d and subdiagonal e[1:] by the root-free QL iteration of Pal,
// Walker and Kahan (EISPACK tqlrat), overwriting d with the unordered
// eigenvalues. It works on the squared off-diagonal, which it writes over e
// in place, so a rotation needs no square root: one per iteration forms the
// shift. The split test is tqlrat's absolute one, e² ≤ (ε·t)² with t the
// largest |d|+|e| seen, which bounds every eigenvalue's error by a multiple
// of ε·‖T‖ (DESIGN.md §9). It reports false if an eigenvalue fails to
// converge within qlMaxIter iterations. e is destroyed.
func tqlRootFree(d, e []float64) bool {
	n := len(d)
	if n <= 1 {
		return true
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i] * e[i]
	}
	e[n-1] = 0
	f, t, b, c := 0.0, 0.0, 0.0, 0.0
	for l := 0; l < n; l++ {
		if h := math.Abs(d[l]) + math.Sqrt(e[l]); t < h {
			t = h
			b = macheps * t
			c = b * b
		}
		// Look for a negligible squared off-diagonal; e[n-1] is always 0.
		m := l
		for e[m] > c {
			m++
		}
		// As in tqlrat, the block end m stays fixed until d[l] converges.
		for iter := 0; m > l; iter++ {
			if iter == qlMaxIter {
				return false
			}
			// Shift every unconverged diagonal by the eigenvalue estimate of
			// the leading 2×2 block; f accumulates the shifts.
			s := math.Sqrt(e[l])
			g := d[l]
			p := (d[l+1] - g) / (2 * s)
			r := pythag(p, 1)
			d[l] = s / (p + signOf(r, p))
			h := g - d[l]
			for i := l + 1; i < n; i++ {
				d[i] -= h
			}
			f += h
			// Rational QL sweep from m up to l; a zero pivot g is replaced
			// by b (ε·t), so no divide is by zero.
			g = d[m]
			if g == 0 {
				g = b
			}
			h = g
			s = 0
			for i := m - 1; i >= l; i-- {
				p = g * h
				r = p + e[i]
				e[i+1] = s * r
				s = e[i] / r
				d[i+1] = h + s*(h+d[i])
				g = d[i] - e[i]/g
				if g == 0 {
					g = b
				}
				h = g * p / r
			}
			e[l] = s * g
			d[l] = h
			// e[l]·h is the new squared off-diagonal; test it against c
			// without forming it, so the test cannot underflow.
			if h == 0 || math.Abs(e[l]) <= math.Abs(c/h) {
				break
			}
			if e[l] *= h; e[l] == 0 {
				break
			}
		}
		d[l] += f
	}
	return true
}
