// Package gen generates synthetic ETC/ECS environments for simulation
// studies — the application the reproduced paper motivates in its
// introduction ("generating ETC matrices for simulation studies that span
// the entire range of heterogeneities", the paper's ref [2]).
//
// Three generators are provided:
//
//   - RangeBased — the widely used range-based method of Ali et al. (the
//     paper's refs [4]/[6]): ETC(i,j) = U[1, R_task] · U[1, R_mach].
//   - CVB — the coefficient-of-variation-based method of Ali et al.:
//     gamma-distributed task weights and machine speeds parameterized by the
//     task and machine COVs.
//   - Targeted — new in this repository, built directly on the paper's
//     measures: produce an environment whose MPH and TDH hit requested
//     values exactly and whose TMA hits a requested value by bisection on an
//     affinity mixing parameter.
package gen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/sinkhorn"
	"repro/internal/stats"
)

// RangeBased generates a T×M ETC environment with the range-based method:
// for each task type a baseline τ(i) ~ U[1, rTask], and
// ETC(i, j) = τ(i) · U[1, rMach]. Larger ranges mean more heterogeneity.
func RangeBased(t, m int, rTask, rMach float64, rng *rand.Rand) (*etcmat.Env, error) {
	if t < 1 || m < 1 {
		return nil, fmt.Errorf("gen: RangeBased needs positive dimensions, got %dx%d", t, m)
	}
	if rTask < 1 || rMach < 1 {
		return nil, fmt.Errorf("gen: ranges must be >= 1, got rTask=%g rMach=%g", rTask, rMach)
	}
	etc := matrix.New(t, m)
	for i := 0; i < t; i++ {
		tau := 1 + rng.Float64()*(rTask-1)
		for j := 0; j < m; j++ {
			etc.Set(i, j, tau*(1+rng.Float64()*(rMach-1)))
		}
	}
	return etcmat.NewFromETC(etc)
}

// CVB generates a T×M ETC environment with the coefficient-of-variation
// method: task baselines q(i) ~ Gamma(α_task, μ_task/α_task) with
// α_task = 1/vTask², and ETC(i, j) ~ Gamma(α_mach, q(i)/α_mach) with
// α_mach = 1/vMach². vTask and vMach are the desired task and machine COVs.
func CVB(t, m int, vTask, vMach, muTask float64, rng *rand.Rand) (*etcmat.Env, error) {
	if t < 1 || m < 1 {
		return nil, fmt.Errorf("gen: CVB needs positive dimensions, got %dx%d", t, m)
	}
	if vTask <= 0 || vMach <= 0 || muTask <= 0 {
		return nil, fmt.Errorf("gen: CVB parameters must be positive, got vTask=%g vMach=%g muTask=%g", vTask, vMach, muTask)
	}
	alphaTask := 1 / (vTask * vTask)
	alphaMach := 1 / (vMach * vMach)
	etc := matrix.New(t, m)
	for i := 0; i < t; i++ {
		q := stats.Gamma(rng, alphaTask, muTask/alphaTask)
		for j := 0; j < m; j++ {
			etc.Set(i, j, stats.Gamma(rng, alphaMach, q/alphaMach))
		}
	}
	return etcmat.NewFromETC(etc)
}

// Target is a requested heterogeneity profile for Targeted.
type Target struct {
	Tasks, Machines int
	// MPH and TDH in (0, 1]; hit exactly (to balancing tolerance) by
	// construction.
	MPH, TDH float64
	// TMA in [0, 1); approached by bisection. The achievable maximum depends
	// on the shape — the result reports what was reached.
	TMA float64
	// Tol is the acceptable |achieved-requested| TMA gap (default 1e-3).
	Tol float64
}

// Generated is the output of Targeted.
type Generated struct {
	Env      *etcmat.Env
	Achieved *core.Profile
	// Mix is the affinity mixing parameter the bisection settled on.
	Mix float64
}

// ErrUnreachable is returned when the requested TMA exceeds what the
// affinity structure can reach for the given shape.
var ErrUnreachable = errors.New("gen: requested TMA not reachable for this shape")

// targetedScratch is the reusable per-call state of Targeted: the affinity
// core matrix, the standardization and spectral workspaces the bisection
// loop evaluates TMA with, and the sum buffers of the final rebalance. The
// bisection runs entirely on raw matrices — no Env, no memo, no factor SVD —
// so a warm Targeted call allocates only for its returned Env and Profile.
// Each probe standardizes cold: the core converges in few rounds from
// scratch, and a seed from the previous probe saved none of them while its
// over-relaxed rounds cost time (DESIGN.md §12).
type targetedScratch struct {
	core   *matrix.Dense
	sink   *sinkhorn.Workspace
	spec   *linalg.Workspace
	sv     []float64
	cs, rs []float64
}

var scratchPool = sync.Pool{New: func() any {
	return &targetedScratch{
		core: matrix.New(0, 0),
		sink: sinkhorn.NewWorkspace(),
		spec: linalg.NewWorkspace(),
	}
}}

// tma evaluates the task-machine affinity of the strictly positive core
// matrix held in sc.core (paper Eq. 8): standardize, take the singular
// values through the Gram fast path, and average the non-maximum ones.
func (sc *targetedScratch) tma() (float64, error) {
	rt, ct := sinkhorn.StandardTargets(sc.core.Dims())
	res, err := sinkhorn.Balance(context.Background(), sc.core, sinkhorn.Options{
		RowTarget: rt, ColTarget: ct, TrimUnsupported: true, Workspace: sc.sink,
	})
	if err != nil {
		return 0, err
	}
	sc.sv = linalg.AppendSingularValues(sc.sv[:0], res.Scaled, sc.spec)
	sum := 0.0
	for _, s := range sc.sv[1:] {
		sum += s
	}
	v := sum / float64(len(sc.sv)-1)
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v, nil
}

// Targeted generates an environment hitting the requested (MPH, TDH, TMA)
// profile. Machine performances follow a geometric profile with adjacent
// ratio = MPH (making Eq. 3 exact) and task difficulties one with adjacent
// ratio = TDH; the affinity core interpolates between a rank-1 matrix
// (TMA 0) and a wrap-around assignment pattern (maximal TMA), with the mixing
// parameter found by bisection. Row/column rebalancing to the performance
// and difficulty profiles cannot move TMA (it is invariant to diagonal
// scalings), so the three targets decouple — the independence property the
// paper designs its measures around.
func Targeted(target Target, rng *rand.Rand) (*Generated, error) {
	t, m := target.Tasks, target.Machines
	if t < 2 || m < 2 {
		return nil, fmt.Errorf("gen: Targeted needs at least 2 tasks and 2 machines, got %dx%d", t, m)
	}
	if target.MPH <= 0 || target.MPH > 1 || target.TDH <= 0 || target.TDH > 1 {
		return nil, fmt.Errorf("gen: MPH and TDH targets must lie in (0,1], got %g and %g", target.MPH, target.TDH)
	}
	if target.TMA < 0 || target.TMA >= 1 {
		return nil, fmt.Errorf("gen: TMA target must lie in [0,1), got %g", target.TMA)
	}
	tol := target.Tol
	if tol <= 0 {
		tol = 1e-3
	}

	// The bisection evaluates TMA on pooled scratch: each probe regenerates
	// the affinity core in place, rebalances it on the Sinkhorn workspace and
	// reads the spectrum through the Gram fast path — zero allocations per
	// probe once the workspaces are warm.
	sc := scratchPool.Get().(*targetedScratch)
	defer scratchPool.Put(sc)
	tmaOf := func(a float64) (float64, error) {
		affinityCoreInto(sc.core.Reset(t, m), a, rng)
		return sc.tma()
	}

	// Bisection on the mixing parameter. TMA(0) = 0 (rank-1 core) and
	// TMA(a) grows monotonically toward the shape's maximum.
	lo, hi := 0.0, 1.0
	tmaHi, err := tmaOf(hi)
	if err != nil {
		return nil, err
	}
	if target.TMA > tmaHi+tol {
		return nil, fmt.Errorf("%w: requested %.4f, shape %dx%d reaches at most %.4f",
			ErrUnreachable, target.TMA, t, m, tmaHi)
	}
	var mix float64
	switch {
	case target.TMA <= tol:
		mix = 0
	case math.Abs(target.TMA-tmaHi) <= tol:
		mix = 1
	default:
		for iter := 0; iter < 60; iter++ {
			mid := (lo + hi) / 2
			v, err := tmaOf(mid)
			if err != nil {
				return nil, err
			}
			if math.Abs(v-target.TMA) <= tol/2 {
				lo, hi = mid, mid
				break
			}
			if v < target.TMA {
				lo = mid
			} else {
				hi = mid
			}
		}
		mix = (lo + hi) / 2
	}
	// Regenerate the settled core (consuming the same rng draws the old
	// Env-based evaluation did, so seeded sweeps reproduce) and rebalance it
	// in place so machine performances follow a geometric profile with
	// adjacent ratio target.MPH and task difficulties one with ratio
	// target.TDH; then Eq. 3 and Eq. 7 evaluate to the targets exactly.
	coreMat := affinityCoreInto(sc.core.Reset(t, m), mix, rng)
	mp := geometricProfile(m, target.MPH)
	td := geometricProfile(t, target.TDH)
	// The two profiles must carry the same total mass.
	matrix.VecScale(td, matrix.VecSum(mp)/matrix.VecSum(td))
	sc.cs = growVec(sc.cs, m)
	sc.rs = growVec(sc.rs, t)
	if err := balanceToTargets(coreMat, td, mp, sc.cs, sc.rs); err != nil {
		return nil, err
	}
	env, err := etcmat.NewFromECS(coreMat)
	if err != nil {
		return nil, err
	}
	return &Generated{Env: env, Achieved: core.Characterize(env), Mix: mix}, nil
}

func growVec(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// affinityCore builds the TMA-controlling core: a convex mix of a rank-1
// matrix (no affinity) and a wrap-around assignment pattern in which task i
// prefers machine i mod m (maximal affinity), plus a whiff of noise so
// repeated generation is not identical.
func affinityCore(t, m int, a float64, rng *rand.Rand) *matrix.Dense {
	return affinityCoreInto(matrix.New(t, m), a, rng)
}

// affinityCoreInto writes the affinity core into dst (which fixes the shape)
// and returns it; the allocation-free form the Targeted bisection probes use.
func affinityCoreInto(dst *matrix.Dense, a float64, rng *rand.Rand) *matrix.Dense {
	t, m := dst.Dims()
	const jitter = 1e-3
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			v := (1 - a) * 1
			if j == i%m {
				v += a * float64(m)
			}
			if rng != nil {
				v += jitter * rng.Float64() * (1 - a)
			}
			// Keep entries strictly positive so the standardization is exact.
			dst.Set(i, j, v+1e-9)
		}
	}
	return dst
}

// geometricProfile returns n ascending values with constant adjacent ratio r:
// v[k] = r^(n-1-k). With this profile the paper's homogeneity aggregate
// (mean adjacent ratio after ascending sort) equals r exactly.
func geometricProfile(n int, r float64) []float64 {
	v := make([]float64, n)
	for k := 0; k < n; k++ {
		v[k] = math.Pow(r, float64(n-1-k))
	}
	return v
}

// balanceToTargets alternately scales rows and columns of the positive
// matrix w — in place — until row i sums to rowTargets[i] and column j to
// colTargets[j], the generalized (non-uniform) Sinkhorn problem. The target
// vectors must have equal totals. cs and rs are the fused-pass sum buffers
// (lengths cols and rows); nil buffers are allocated.
func balanceToTargets(w *matrix.Dense, rowTargets, colTargets, cs, rs []float64) error {
	t, m := w.Dims()
	if len(rowTargets) != t || len(colTargets) != m {
		return fmt.Errorf("gen: target lengths (%d,%d) do not match matrix %dx%d",
			len(rowTargets), len(colTargets), t, m)
	}
	if math.Abs(matrix.VecSum(rowTargets)-matrix.VecSum(colTargets)) > 1e-9*matrix.VecSum(rowTargets) {
		return errors.New("gen: row and column target totals differ")
	}
	const (
		tolerance = 1e-10
		maxIter   = 5000
	)
	if cs == nil {
		cs = make([]float64, m)
	}
	if rs == nil {
		rs = make([]float64, t)
	}
	// Same fused-kernel structure as sinkhorn.Balance: each half-step scales
	// and reduces in one pass, and the convergence check reads the column
	// sums the row half-step just produced (rows are exact by construction).
	w.ColSumsInto(cs)
	for iter := 0; iter < maxIter; iter++ {
		for j := range cs {
			cs[j] = colTargets[j] / cs[j]
		}
		w.ScaleColsRowSums(cs, rs)
		for i := range rs {
			rs[i] = rowTargets[i] / rs[i]
		}
		w.ScaleRowsColSums(rs, cs)
		dev := 0.0
		for j, s := range cs {
			if d := math.Abs(s - colTargets[j]); d > dev {
				dev = d
			}
		}
		if dev < tolerance {
			return nil
		}
	}
	return errors.New("gen: target balancing did not converge")
}
