// Package sinkhorn implements the iterative row/column normalization that
// puts an ECS matrix in *standard form* (Section III-C/D of the reproduced
// paper): alternating column and row normalizations (the paper's Eq. 9) until
// every row sums to a common target and every column sums to a common target.
//
// With the paper's scaling choice (Theorem 1 with k = 1/√(TM)) a T×M matrix
// is driven to row sums √(M/T) and column sums √(T/M); Theorem 2 then
// guarantees the largest singular value of the standard matrix is exactly 1,
// which simplifies the TMA formula.
//
// The iteration is Sinkhorn's (the paper's ref [21], generalized to
// rectangular matrices in Appendix A). For matrices with zeros it may
// converge only entrywise (support without total support — the scaling
// factors diverge while unsupported entries decay to zero) or not at all
// (decomposable patterns such as the paper's Eq. 10); both conditions are
// detected and reported in the Result.
package sinkhorn

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Options configures Balance.
type Options struct {
	// RowTarget and ColTarget are the desired common row and column sums.
	// They must be positive and consistent: rows*RowTarget == cols*ColTarget
	// (both equal the total mass of the scaled matrix).
	RowTarget, ColTarget float64
	// Tol is the convergence tolerance on the maximum absolute deviation of
	// any row or column sum from its target. The paper uses 1e-8 (Sec. V);
	// zero selects it (DefaultTol).
	Tol float64
	// MaxIter caps the number of iterations, where one iteration is one
	// column normalization followed by one row normalization (the paper's
	// convention when reporting convergence in 6-7 iterations). Zero selects
	// the default of 10000.
	MaxIter int
	// TrimUnsupported applies to matrices containing zeros. When set,
	// entries that lie on no positive diagonal (no total support; computed
	// on the matrix itself when square, or on its Appendix A square tiling
	// when rectangular) are zeroed before iterating. Those entries decay to
	// zero in the Sinkhorn limit anyway, but only sublinearly — trimming
	// computes the same entrywise limit with geometric convergence. The
	// number of removed entries is reported in Result.Trimmed; a nonzero
	// count means the original matrix is not exactly scalable by finite
	// positive diagonal matrices (the paper's Fig. 4 A/B/D situation).
	TrimUnsupported bool
	// Warm optionally seeds the run with the scaling vectors of a previous
	// run on a nearby matrix (see WarmStart); nil starts cold. The returned
	// D1/D2 include the seed factors, so Scaled = D1 · A · D2 holds for warm
	// and cold runs alike.
	Warm *WarmStart
	// Workspace optionally supplies reusable scratch storage. When set, the
	// returned Result and its Scaled/D1/D2 fields are backed by it: they are
	// valid only until the next run on the same Workspace and must be cloned
	// to outlive it. Nil allocates fresh caller-owned storage.
	Workspace *Workspace
}

// DefaultTol is the convergence tolerance used in the paper's experiments
// (Section V: "maximum error in any column or row norm is less than 1/10^8").
const DefaultTol = 1e-8

// Result reports the outcome of a balancing run.
type Result struct {
	// Scaled is the balanced matrix (a new matrix; the input is untouched).
	Scaled *matrix.Dense
	// D1 and D2 are the accumulated diagonal scaling factors:
	// Scaled = D1 · A · D2 (as vectors of the diagonals). Theorem 1
	// guarantees they are unique up to reciprocal scalar multiples for
	// positive A. For matrices with zeros they may diverge even when Scaled
	// converges.
	D1, D2 []float64
	// Iterations is the number of column+row normalization rounds performed.
	Iterations int
	// Converged reports whether the deviation dropped below Tol.
	Converged bool
	// MaxDeviation is the final maximum |sum - target| over all rows and
	// columns.
	MaxDeviation float64
	// Trimmed is the number of entries zeroed by Options.TrimUnsupported.
	// When positive, the input has no exact scaling D1·A·D2 with the same
	// zero pattern; Scaled is the entrywise limit of the paper's Eq. 9
	// iteration instead.
	Trimmed int
}

// ErrZeroLine is returned when the input has an all-zero row or column, for
// which no scaling can exist (the paper excludes these from valid ECS
// matrices: a machine that can run nothing, or a task type no machine runs).
var ErrZeroLine = errors.New("sinkhorn: input has an all-zero row or column")

// ErrNotConverged is returned when MaxIter rounds did not reach Tol. This is
// the expected outcome for decomposable patterns such as the paper's Eq. 10
// example; use bipartite.ScalableSquare for a structural diagnosis.
var ErrNotConverged = errors.New("sinkhorn: iteration did not converge (matrix may not be scalable)")

// ErrNoSupport is returned by TrimUnsupported preprocessing when the zero
// pattern (of the matrix, or of its Appendix A square tiling in the
// rectangular case) has no positive diagonal at all; the Sinkhorn iteration
// has no limit for such matrices.
var ErrNoSupport = errors.New("sinkhorn: zero pattern has no support (no positive diagonal)")

// Workspace carries the scratch state of a balancing run — the working
// matrix, the accumulated scaling diagonals and the fused-pass sum buffers —
// so Monte Carlo sweeps that standardize thousands of matrices reuse one
// allocation set instead of paying ~6 allocations per call (see
// Options.Workspace). A Workspace is not safe for concurrent use.
type Workspace struct {
	w              *matrix.Dense
	d1, d2, cs, rs []float64
	res            Result
}

// NewWorkspace returns an empty balancing workspace; buffers grow on use.
func NewWorkspace() *Workspace { return &Workspace{w: matrix.New(0, 0)} }

func growVec(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// WarmStart carries the converged scaling vectors of a previous balancing
// run, to seed a run on a nearby matrix: a what-if edit, a 1% perturbation,
// the next probe of a parameter sweep. The iteration starts from
// diag(D1)·A·diag(D2) instead of A itself, so when the seed is close to the
// true scaling only a residual correction remains. The vectors must be
// strictly positive and finite and match the matrix dimensions; the limit
// reached is identical to a cold start (Theorem 1: the scaling is unique up
// to reciprocal scalar multiples), so warm and cold results agree to the
// convergence tolerance.
//
// When Sigma2 is also set, the warm run over-relaxes each normalization
// (see omega), which roughly squares the per-round contraction near the
// fixed point. The over-relaxation, not the seed, carries the gain: on a
// well-mixing matrix a cold run converges in about as many rounds as a
// seeded one and skips the seed's bookkeeping, while on a nearly
// decomposable one (σ₂ near 1) σ₂-tuned SOR cuts the rounds several-fold
// and the seed alone does not (see DESIGN.md §12).
type WarmStart struct {
	// D1 and D2 are the row and column scaling seeds, usually a previous
	// Result's D1 and D2 (cloned if that Result was workspace-backed).
	D1, D2 []float64
	// Sigma2 optionally holds the second-largest singular value of the
	// previous run's standard form (the first is exactly 1 by Theorem 2, so
	// Sigma2 is the normalized subdominant singular value). Near the fixed
	// point one Sinkhorn round contracts the error through the linearized
	// map W·Wᵀ, whose spectrum is {σₖ²}; knowing σ₂ therefore selects the
	// optimal over-relaxation factor for the seeded run. Zero (or any value
	// outside (0,1)) disables over-relaxation; a slightly stale value — the
	// unperturbed matrix's σ₂ — is fine, since the optimum is flat.
	Sigma2 float64
}

// valid reports whether the seed can be applied to a t x m matrix.
func (w *WarmStart) valid(t, m int) error {
	if w == nil {
		return nil
	}
	if len(w.D1) != t || len(w.D2) != m {
		return fmt.Errorf("sinkhorn: warm start has %dx%d scaling vectors for a %dx%d matrix",
			len(w.D1), len(w.D2), t, m)
	}
	for _, v := range w.D1 {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("sinkhorn: warm-start row scaling %g must be positive and finite", v)
		}
	}
	for _, v := range w.D2 {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("sinkhorn: warm-start column scaling %g must be positive and finite", v)
		}
	}
	if math.IsNaN(w.Sigma2) || math.IsInf(w.Sigma2, 0) {
		return fmt.Errorf("sinkhorn: warm-start sigma2 %g must be finite", w.Sigma2)
	}
	return nil
}

// Matches reports whether the seed's scaling vectors fit a t x m matrix.
// Callers that treat a warm start as a best-effort hint (rather than a hard
// requirement) can use it to drop a seed whose shape no longer applies
// instead of surfacing the validation error from the balancing run.
func (w *WarmStart) Matches(t, m int) bool {
	return w != nil && len(w.D1) == t && len(w.D2) == m
}

// DropRow returns a copy of the seed without row i's scaling factor — the
// seed for a leave-one-out solve that removes row i from the matrix. Sigma2
// is carried over: the reduced matrix's subdominant singular value is close
// for percent-level structural edits, and over-relaxation tolerates a stale
// value (see omega). Out-of-range i returns nil (no seed).
func (w *WarmStart) DropRow(i int) *WarmStart {
	if w == nil || i < 0 || i >= len(w.D1) {
		return nil
	}
	d1 := make([]float64, 0, len(w.D1)-1)
	d1 = append(d1, w.D1[:i]...)
	d1 = append(d1, w.D1[i+1:]...)
	return &WarmStart{D1: d1, D2: matrix.VecClone(w.D2), Sigma2: w.Sigma2}
}

// DropCol returns a copy of the seed without column j's scaling factor; see
// DropRow.
func (w *WarmStart) DropCol(j int) *WarmStart {
	if w == nil || j < 0 || j >= len(w.D2) {
		return nil
	}
	d2 := make([]float64, 0, len(w.D2)-1)
	d2 = append(d2, w.D2[:j]...)
	d2 = append(d2, w.D2[j+1:]...)
	return &WarmStart{D1: matrix.VecClone(w.D1), D2: d2, Sigma2: w.Sigma2}
}

// AppendRow returns a copy of the seed extended with a scaling factor for a
// new last row — the seed for a solve on a matrix that grew by one row (the
// streaming add-task mutation). The caller supplies d, typically the factor
// that puts the new row on its target sum under the current column scalings
// (rowTarget / Σⱼ row[j]·D2[j]); any non-positive or non-finite d falls back
// to the neutral 1, which the first normalization round corrects. Sigma2 is
// carried over — see DropRow for why a stale value is acceptable.
func (w *WarmStart) AppendRow(d float64) *WarmStart {
	if w == nil {
		return nil
	}
	if !(d > 0) || math.IsInf(d, 0) {
		d = 1
	}
	d1 := make([]float64, 0, len(w.D1)+1)
	d1 = append(d1, w.D1...)
	d1 = append(d1, d)
	return &WarmStart{D1: d1, D2: matrix.VecClone(w.D2), Sigma2: w.Sigma2}
}

// AppendCol returns a copy of the seed extended with a scaling factor for a
// new last column (the streaming add-machine mutation); see AppendRow.
func (w *WarmStart) AppendCol(d float64) *WarmStart {
	if w == nil {
		return nil
	}
	if !(d > 0) || math.IsInf(d, 0) {
		d = 1
	}
	d2 := make([]float64, 0, len(w.D2)+1)
	d2 = append(d2, w.D2...)
	d2 = append(d2, d)
	return &WarmStart{D1: matrix.VecClone(w.D1), D2: d2, Sigma2: w.Sigma2}
}

// omega returns the over-relaxation factor for the seeded run. The
// alternating normalization is Gauss-Seidel on the bipartite (rows, columns)
// log-scaling system, a consistently ordered 2-cyclic structure with Jacobi
// spectral radius σ₂, so Young's optimal SOR factor ω* = 2/(1+√(1−σ₂²))
// applies verbatim and improves the per-round contraction from σ₂² to ω*−1
// ≈ σ₂²/4 for well-conditioned matrices. Any ω in (0,2) still converges to
// the same unique fixed point, so a stale or inexact σ₂ only costs speed.
func (w *WarmStart) omega() float64 {
	if w == nil || !(w.Sigma2 > 0) || w.Sigma2 >= 1 {
		return 1
	}
	return 2 / (1 + math.Sqrt(1-w.Sigma2*w.Sigma2))
}

// Balance runs alternating column/row normalization (the paper's Eq. 9) on a
// nonnegative matrix, optionally warm-started (Options.Warm) and on a
// reusable workspace (Options.Workspace). When ctx carries an obs.Trace the
// run is recorded as a "standardize" span. On ErrNotConverged the returned
// Result still carries the last iterate and diagnostics.
func Balance(ctx context.Context, a *matrix.Dense, opt Options) (*Result, error) {
	sp := obs.StartSpan(ctx, "standardize")
	defer sp.End()
	t, m := a.Dims()
	if t == 0 || m == 0 {
		return nil, errors.New("sinkhorn: empty matrix")
	}
	if !a.NonNegative() {
		return nil, errors.New("sinkhorn: input must be nonnegative")
	}
	if opt.RowTarget <= 0 || opt.ColTarget <= 0 {
		return nil, fmt.Errorf("sinkhorn: targets must be positive, got row %g col %g", opt.RowTarget, opt.ColTarget)
	}
	if total := float64(t) * opt.RowTarget; math.Abs(total-float64(m)*opt.ColTarget) > 1e-9*total {
		return nil, fmt.Errorf("sinkhorn: inconsistent targets: rows*RowTarget = %g but cols*ColTarget = %g",
			total, float64(m)*opt.ColTarget)
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = DefaultTol
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10000
	}
	warm, ws := opt.Warm, opt.Workspace
	if err := warm.valid(t, m); err != nil {
		return nil, err
	}

	var w *matrix.Dense
	if ws == nil {
		// Fresh storage the caller alone holds. The working matrix becomes
		// Result.Scaled, which etcmat.Env.ReleaseBuffers hands back to the
		// matrix pool, so take it from there.
		w = matrix.ClonePooled(a)
		ws = &Workspace{w: w}
	} else {
		w = ws.w.Reset(t, m)
		copy(w.RawData(), a.RawData())
	}
	d1 := fillOnes(growVec(&ws.d1, t))
	d2 := fillOnes(growVec(&ws.d2, m))
	cs := growVec(&ws.cs, m)
	rs := growVec(&ws.rs, t)
	ws.res = Result{}
	res := &ws.res

	trimmed := 0
	if opt.TrimUnsupported && w.CountZeros() > 0 {
		var err error
		trimmed, err = trimUnsupported(w)
		if err != nil {
			return nil, err
		}
	}

	if warm != nil {
		// Start from diag(D1)·A·diag(D2). Positive diagonal scalings preserve
		// the zero pattern, so the trim above stays valid; the accumulated
		// diagonals start at the seed so the Scaled = D1·A·D2 invariant holds.
		w.ScaleRows(warm.D1)
		w.ScaleCols(warm.D2)
		copy(d1, warm.D1)
		copy(d2, warm.D2)
	}

	// The iteration keeps the current column and row sums in two reused
	// buffers: each half-step is a single fused pass (scale + reduce, see
	// matrix.ScaleColsRowSums / ScaleRowsColSums) instead of separate
	// sum, scale and deviation sweeps over the matrix.
	w.ColSumsInto(cs)
	w.RowSumsInto(rs)

	// Reject structurally impossible inputs up front.
	for i, s := range rs {
		if s == 0 {
			return nil, fmt.Errorf("%w: row %d", ErrZeroLine, i)
		}
	}
	for j, s := range cs {
		if s == 0 {
			return nil, fmt.Errorf("%w: column %d", ErrZeroLine, j)
		}
	}

	res.D1, res.D2, res.Trimmed = d1, d2, trimmed
	// The cold path (omega == 1) is the paper's plain Eq. 9 iteration. A warm
	// start with a known σ₂ over-relaxes each normalization: the factor that
	// would exactly hit the target is raised to the power ω ∈ (1,2), which is
	// classical SOR on the log-scaling system (see WarmStart.omega). With
	// ω > 1 neither the row nor the column sums are exact after their step,
	// so the deviation is then measured over both.
	// Over-relaxation is only guaranteed to contract near the fixed point.
	// When the seed is far off (an aggressive sweep jump, a badly stale σ₂)
	// an ω near 2 can settle into a limit cycle instead — possibly one that
	// alternates between deviation levels, so the safeguard below compares
	// each round against the best deviation seen, not the previous one: six
	// rounds without improving on the best drops ω back to 1 permanently,
	// and the plain iteration (globally convergent for positive matrices)
	// finishes from the current iterate.
	omega := warm.omega()
	bestDev := math.Inf(1)
	stall := 0
	// Fleet-sized matrices run the cache-oblivious tiled passes instead of
	// the whole-row fused kernels — bit-identical results, better locality
	// once a row's working set outgrows the cache hierarchy (see tiling.go).
	tiled := t*m >= tiledBalanceMin
	for it := 1; it <= maxIter; it++ {
		// Column normalization (Eq. 9, odd steps): cs holds the column sums,
		// which become the scaling factors; the fused pass leaves the new row
		// sums in rs.
		if omega == 1 {
			for j := range cs {
				f := opt.ColTarget / cs[j]
				d2[j] *= f
				cs[j] = f
			}
		} else {
			for j := range cs {
				f := math.Pow(opt.ColTarget/cs[j], omega)
				d2[j] *= f
				cs[j] = f
			}
		}
		if tiled {
			ScaleColsRowSumsTiled(w, cs, rs)
		} else {
			w.ScaleColsRowSums(cs, rs)
		}
		// Row normalization (Eq. 9, even steps); the fused pass leaves the
		// new column sums in cs.
		rowDev := 0.0
		if omega == 1 {
			for i := range rs {
				f := opt.RowTarget / rs[i]
				d1[i] *= f
				rs[i] = f
			}
		} else {
			for i := range rs {
				f := math.Pow(opt.RowTarget/rs[i], omega)
				if d := math.Abs(rs[i]*f - opt.RowTarget); d > rowDev {
					rowDev = d
				}
				d1[i] *= f
				rs[i] = f
			}
		}
		if tiled {
			ScaleRowsColSumsTiled(w, rs, cs)
		} else {
			w.ScaleRowsColSums(rs, cs)
		}

		res.Iterations = it
		// With ω == 1 every row sums to RowTarget up to roundoff after the
		// row step, so the deviation is carried entirely by the column sums
		// in cs; the over-relaxed path adds the residual row deviation
		// tracked above.
		dev := rowDev
		for _, s := range cs {
			if d := math.Abs(s - opt.ColTarget); d > dev {
				dev = d
			}
		}
		res.MaxDeviation = dev
		if res.MaxDeviation < tol {
			res.Converged = true
			break
		}
		if omega != 1 {
			if dev < 0.98*bestDev {
				stall = 0
			} else if stall++; stall >= 6 {
				omega = 1
			}
		}
		if dev < bestDev {
			bestDev = dev
		}
	}
	res.Scaled = w
	if !res.Converged {
		return res, fmt.Errorf("%w: deviation %g after %d iterations", ErrNotConverged, res.MaxDeviation, res.Iterations)
	}
	return res, nil
}

// trimUnsupported zeroes the entries of w that decay to zero in the Sinkhorn
// limit (no total support). Square matrices are analyzed directly; a
// rectangular T×M matrix is analyzed through the Appendix A square tiling
// (the paper's Sec. VI prescription: the rectangular case reduces to the
// square one), where an entry survives iff its copies lie on a positive
// diagonal of the tiled pattern. Returns the number of zeroed entries, or
// ErrNoSupport when the (tiled) pattern has no positive diagonal at all —
// the iteration has no limit then.
func trimUnsupported(w *matrix.Dense) (int, error) {
	t, m := w.Dims()
	if t == m {
		p := bipartite.PatternOf(w, 0)
		if !p.HasSupport() {
			return 0, ErrNoSupport
		}
		all, supported := p.TotalSupport()
		if all {
			return 0, nil
		}
		return zeroUnsupported(w, func(i, j int) bool { return supported[i*m+j] }), nil
	}
	square, blockRows, blockCols := tileSquare(w)
	n := square.Rows()
	p := bipartite.PatternOf(square, 0)
	if !p.HasSupport() {
		return 0, ErrNoSupport
	}
	all, supported := p.TotalSupport()
	if all {
		return 0, nil
	}
	// An entry of w survives iff every one of its tiled copies does: the
	// limit of the tiled balance is itself a tiling, so copy statuses agree;
	// requiring all copies guards against asymmetric matchings.
	return zeroUnsupported(w, func(i, j int) bool {
		for br := 0; br < blockRows; br++ {
			for bc := 0; bc < blockCols; bc++ {
				if !supported[(br*t+i)*n+(bc*m+j)] {
					return false
				}
			}
		}
		return true
	}), nil
}

func zeroUnsupported(w *matrix.Dense, keep func(i, j int) bool) int {
	trimmed := 0
	w.Apply(func(i, j int, v float64) float64 {
		if v != 0 && !keep(i, j) {
			trimmed++
			return 0
		}
		return v
	})
	return trimmed
}

// maxDeviation returns the largest |row sum - rowTarget| or
// |col sum - colTarget|. The Balance hot loop tracks deviations through its
// fused kernels instead; this full recomputation serves the tiling path's
// one-shot residual check.
func maxDeviation(w *matrix.Dense, rowTarget, colTarget float64) float64 {
	dev := 0.0
	for _, s := range w.RowSums() {
		if d := math.Abs(s - rowTarget); d > dev {
			dev = d
		}
	}
	for _, s := range w.ColSums() {
		if d := math.Abs(s - colTarget); d > dev {
			dev = d
		}
	}
	return dev
}

// StandardTargets returns the paper's standard-form row and column sum
// targets for a T×M matrix (Theorem 1 with k = 1/√(TM)): rows sum to √(M/T),
// columns to √(T/M). Theorem 2 then makes σ₁ = 1.
func StandardTargets(t, m int) (rowTarget, colTarget float64) {
	return math.Sqrt(float64(m) / float64(t)), math.Sqrt(float64(t) / float64(m))
}

// Standardize balances a T×M ECS matrix to the paper's standard form using
// the paper's tolerance. Matrices with zeros are trimmed to their totally
// supported pattern first so the entrywise Sinkhorn limit is reached with
// geometric convergence (see Options.TrimUnsupported). See Balance for
// error semantics; callers that seed, reuse a workspace, trace or tighten
// the tolerance call Balance with StandardTargets and TrimUnsupported.
func Standardize(a *matrix.Dense) (*Result, error) {
	rt, ct := StandardTargets(a.Dims())
	return Balance(context.Background(), a, Options{RowTarget: rt, ColTarget: ct, TrimUnsupported: true})
}

func fillOnes(v []float64) []float64 {
	for i := range v {
		v[i] = 1
	}
	return v
}
