// Package core implements the reproduced paper's primary contribution: the
// three independent heterogeneity measures of a heterogeneous computing
// environment —
//
//   - MPH, machine performance homogeneity (paper Eq. 3, weighted Eq. 4),
//   - TDH, task difficulty homogeneity (the measure this paper introduces,
//     Eqs. 6-7), and
//   - TMA, task-machine affinity (Eq. 5, simplified to Eq. 8 on the standard
//     form matrix),
//
// plus the comparison measures the paper evaluates MPH against in Figure 2
// (the min/max ratio R, the geometric mean of adjacent ratios G, and the
// coefficient of variation COV), the canonical form, and a one-call
// Characterize that produces the full heterogeneity profile with
// standardization diagnostics.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/etcmat"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sinkhorn"
	"repro/internal/stats"
)

// MachinePerformances returns MP_j for every machine: the weighted column
// sums of the ECS matrix (paper Eq. 4). Higher is a faster machine for this
// task mix. The sums come from the Env's memo, so repeated measure queries
// on one environment do not rebuild the weighted matrix.
func MachinePerformances(env *etcmat.Env) []float64 {
	return env.WeightedColSums()
}

// TaskDifficulties returns TD_i for every task type: the weighted row sums
// of the ECS matrix (paper Eq. 6). Task types with *higher* row sums are
// *less* difficult.
func TaskDifficulties(env *etcmat.Env) []float64 {
	return env.WeightedRowSums()
}

// homogeneityOfSums computes the paper's homogeneity aggregate: sort the
// values ascending and average the ratio of each value to its successor
// (Eqs. 3 and 7). A single value is perfectly homogeneous.
func homogeneityOfSums(vals []float64) float64 {
	if len(vals) <= 1 {
		return 1
	}
	s := matrix.SortedAscending(vals)
	sum := 0.0
	for j := 0; j+1 < len(s); j++ {
		sum += s[j] / s[j+1]
	}
	return sum / float64(len(s)-1)
}

// MPH returns the machine performance homogeneity (paper Eq. 3), a value in
// (0, 1]; 1 means all machines perform identically on this task mix.
func MPH(env *etcmat.Env) float64 {
	return homogeneityOfSums(MachinePerformances(env))
}

// TDH returns the task difficulty homogeneity (paper Eq. 7), a value in
// (0, 1]; 1 means all task types are equally difficult for this machine set.
func TDH(env *etcmat.Env) float64 {
	return homogeneityOfSums(TaskDifficulties(env))
}

// RatioR is the comparison homogeneity measure R of Figure 2: the ratio of
// the lowest machine performance to the highest.
func RatioR(env *etcmat.Env) float64 {
	mp := MachinePerformances(env)
	s := matrix.SortedAscending(mp)
	return s[0] / s[len(s)-1]
}

// GeoMeanG is the comparison measure G of Figure 2: the geometric mean of
// the adjacent performance ratios, which collapses to
// (min/max)^(1/(M-1)) and therefore ignores the intermediate machines —
// the paper's argument for preferring MPH.
func GeoMeanG(env *etcmat.Env) float64 {
	mp := MachinePerformances(env)
	if len(mp) <= 1 {
		return 1
	}
	s := matrix.SortedAscending(mp)
	ratios := make([]float64, 0, len(s)-1)
	for j := 0; j+1 < len(s); j++ {
		ratios = append(ratios, s[j]/s[j+1])
	}
	return stats.GeoMean(ratios)
}

// COV is the comparison heterogeneity measure of Figure 2: the coefficient
// of variation of the machine performances (population standard deviation
// over mean — the convention that reproduces the paper's Figure 2 numbers).
func COV(env *etcmat.Env) float64 {
	return stats.COV(MachinePerformances(env))
}

// TMAResult carries the affinity value along with the standardization
// diagnostics the paper reports (convergence and iteration counts, Sec. V).
type TMAResult struct {
	// TMA is the task-machine affinity in [0, 1] (paper Eq. 8).
	TMA float64
	// SingularValues are the singular values of the standard-form matrix,
	// descending; σ₁ = 1 up to the balancing tolerance (Theorem 2).
	SingularValues []float64
	// Standard is the standard-form ECS matrix the values were computed from.
	Standard *matrix.Dense
	// Iterations is the number of column+row normalization rounds used.
	Iterations int
	// Trimmed counts entries zeroed because they lie on no positive diagonal
	// (square matrices with zeros only); nonzero means the environment is
	// not exactly scalable and the entrywise Sinkhorn limit was used, which
	// is what the paper's Eq. 9 iteration converges to (Fig. 4 A/B/D).
	Trimmed int
}

// ErrNotStandardizable is returned by TMA when the ECS matrix cannot be put
// in standard form (Section VI of the paper — e.g. the decomposable Eq. 10
// pattern). Evaluating TMA for such matrices is listed as future work in the
// paper.
var ErrNotStandardizable = errors.New("core: ECS matrix cannot be put in standard form (see paper Sec. VI)")

// TMA computes the task-machine affinity of the environment (paper Eqs. 5/8):
// the mean of the non-maximum singular values of the standard-form weighted
// ECS matrix. 0 means no affinity (all machines rank task types identically,
// rank-1 ECS); 1 means maximal affinity (disjoint task-machine specialization).
func TMA(env *etcmat.Env) (*TMAResult, error) {
	return TMACtx(context.Background(), env)
}

// TMACtx is TMA with stage tracing: when ctx carries an obs.Trace and the
// environment's standard form is not yet memoized, the pipeline emits
// "standardize", "gram" and "eigensolve" spans.
func TMACtx(ctx context.Context, env *etcmat.Env) (*TMAResult, error) {
	tma, sv, res, err := standardTMA(ctx, env)
	if err != nil {
		return nil, err
	}
	if res == nil { // a single task type or machine: rank one
		return &TMAResult{TMA: 0, SingularValues: []float64{1}, Standard: nil}, nil
	}
	// The memoized matrices are shared, so clone before handing them to the
	// caller.
	return &TMAResult{
		TMA:            tma,
		SingularValues: matrix.VecClone(sv),
		Standard:       res.Scaled.Clone(),
		Iterations:     res.Iterations,
		Trimmed:        res.Trimmed,
	}, nil
}

// standardTMA computes TMA from the environment's memoized standard form
// without copying it: sv and res alias the Env's memo and must not be
// modified or kept past a ReleaseBuffers. res is nil when the environment
// has a single task type or machine.
func standardTMA(ctx context.Context, env *etcmat.Env) (tma float64, sv []float64, res *sinkhorn.Result, err error) {
	minTM := env.Tasks()
	if env.Machines() < minTM {
		minTM = env.Machines()
	}
	if minTM == 1 {
		// A single task type or machine admits no affinity structure; the
		// standard form is rank one by construction.
		return 0, nil, nil, nil
	}
	// The standardization and SVD come from the Env's memo: the first query
	// pays for them, every later TMA/Characterize call on the same Env is a
	// cheap read.
	res, sv, err = env.StandardFormCtx(ctx)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%w: %v", ErrNotStandardizable, err)
	}
	sum := 0.0
	for _, s := range sv[1:] {
		sum += s
	}
	tma = sum / float64(minTM-1)
	// Guard against tolerance-level overshoot.
	if tma < 0 {
		tma = 0
	}
	if tma > 1 {
		tma = 1
	}
	return tma, sv, res, nil
}

// CanonicalForm returns the environment's weighted ECS matrix with machines
// (columns) sorted ascending by performance and task types (rows) sorted
// ascending by difficulty row sum — the paper's canonical ECS matrix
// (Sec. III-B). The returned permutations map canonical index -> original
// index.
func CanonicalForm(env *etcmat.Env) (canonical *matrix.Dense, taskPerm, machinePerm []int) {
	w := env.WeightedECS()
	taskPerm = matrix.AscendingPerm(w.RowSums())
	machinePerm = matrix.AscendingPerm(w.ColSums())
	return w.PermuteRows(taskPerm).PermuteCols(machinePerm), taskPerm, machinePerm
}

// Profile is a complete heterogeneity characterization of an environment.
type Profile struct {
	Tasks, Machines int
	// The paper's three independent measures.
	MPH, TDH, TMA float64
	// Comparison measures (Fig. 2).
	RatioR, GeoMeanG, COV float64
	// Raw aggregates.
	MachinePerf []float64
	TaskDiff    []float64
	// Standardization diagnostics.
	SinkhornIterations int
	Trimmed            int
	// TMAErr is non-nil when the matrix is not standardizable (Sec. VI); the
	// other fields remain valid in that case and TMA is NaN.
	TMAErr error
}

// Characterize computes the full heterogeneity profile of an environment.
// It never fails: a non-standardizable environment (paper Sec. VI) yields
// TMA = NaN with the reason in Profile.TMAErr, and every other field stays
// valid. Callers that prefer an error to a NaN should use Measures.
func Characterize(env *etcmat.Env) *Profile {
	return CharacterizeCtx(context.Background(), env)
}

// CharacterizeCtx is Characterize with stage tracing: when ctx carries an
// obs.Trace, the sum-based measures are recorded as a "measures" span and
// the TMA pipeline emits its "standardize", "gram" and "eigensolve" spans
// (unless the Env had them memoized — no work, no span). Without a trace it
// is exactly Characterize.
func CharacterizeCtx(ctx context.Context, env *etcmat.Env) *Profile {
	sp := obs.StartSpan(ctx, "measures")
	p := &Profile{
		Tasks:       env.Tasks(),
		Machines:    env.Machines(),
		MPH:         MPH(env),
		TDH:         TDH(env),
		RatioR:      RatioR(env),
		GeoMeanG:    GeoMeanG(env),
		COV:         COV(env),
		MachinePerf: MachinePerformances(env),
		TaskDiff:    TaskDifficulties(env),
	}
	sp.End()
	tma, _, res, err := standardTMA(ctx, env)
	if err != nil {
		p.TMA = math.NaN()
		p.TMAErr = err
		return p
	}
	p.TMA = tma
	if res != nil {
		p.SinkhornIterations = res.Iterations
		p.Trimmed = res.Trimmed
	}
	return p
}

// Measures is the error-returning characterization: the same Profile as
// Characterize, but a pipeline failure (today only standardization, paper
// Sec. VI) comes back as an error instead of a NaN field to inspect. The
// sum-based measures — MPH, TDH, RatioR, GeoMeanG, COV — never fail on a
// valid Env, so a non-nil error always means the TMA stage.
func Measures(env *etcmat.Env) (*Profile, error) {
	return MeasuresCtx(context.Background(), env)
}

// MeasuresCtx is Measures with stage tracing (see CharacterizeCtx).
func MeasuresCtx(ctx context.Context, env *etcmat.Env) (*Profile, error) {
	p := CharacterizeCtx(ctx, env)
	if p.TMAErr != nil {
		return nil, p.TMAErr
	}
	return p, nil
}

// String renders the headline measures.
func (p *Profile) String() string {
	tma := fmt.Sprintf("%.4f", p.TMA)
	if p.TMAErr != nil {
		tma = "n/a (" + p.TMAErr.Error() + ")"
	}
	return fmt.Sprintf("Profile{%dx%d MPH=%.4f TDH=%.4f TMA=%s}", p.Tasks, p.Machines, p.MPH, p.TDH, tma)
}
