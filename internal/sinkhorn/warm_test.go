// Warm-start acceptance tests. These live in an external test package so
// they can generate realistic ETC matrices with internal/gen (which itself
// imports sinkhorn) and compute singular values with internal/linalg.
package sinkhorn_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/sinkhorn"
)

// randomPositive builds an r x c matrix with entries in [0.05, 20.05).
func randomPositive(r, c int, seed int64) *matrix.Dense {
	src := rand.New(rand.NewSource(seed))
	a := matrix.New(r, c)
	for i := range a.RawData() {
		a.RawData()[i] = 0.05 + src.Float64()*20
	}
	return a
}

// rangeECS builds a realistic heterogeneous ECS matrix with the range-based
// generator at the serving workload's parameters (task range 100, machine
// range 10 — the same shape hcload submits).
func rangeECS(t *testing.T, r, c int, seed int64) *matrix.Dense {
	t.Helper()
	env, err := gen.RangeBased(r, c, 100, 10, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return env.ECS()
}

// warmOf clones a Result's scaling vectors into a seed, with the subdominant
// singular value of the standard form enabling over-relaxation — exactly
// what the characterization pipeline has at hand after a baseline solve.
func warmOf(res *sinkhorn.Result) *sinkhorn.WarmStart {
	sv := linalg.SingularValues(res.Scaled, nil)
	return &sinkhorn.WarmStart{
		D1:     matrix.VecClone(res.D1),
		D2:     matrix.VecClone(res.D2),
		Sigma2: sv[1],
	}
}

// standardize is sinkhorn.Standardize with a seed and an optional workspace.
func standardize(a *matrix.Dense, warm *sinkhorn.WarmStart, ws *sinkhorn.Workspace) (*sinkhorn.Result, error) {
	rt, ct := sinkhorn.StandardTargets(a.Dims())
	return sinkhorn.Balance(context.Background(), a, sinkhorn.Options{
		RowTarget: rt, ColTarget: ct, TrimUnsupported: true, Warm: warm, Workspace: ws,
	})
}

// tmaOf computes the TMA aggregate (paper Eq. 8: mean of the subdominant
// singular values of the standard form) that Profile.TMA is built from.
func tmaOf(res *sinkhorn.Result) float64 {
	sv := linalg.SingularValues(res.Scaled, nil)
	sum := 0.0
	for _, s := range sv[1:] {
		sum += s
	}
	return sum / float64(len(sv)-1)
}

// TestWarmStartMatchesCold is the correctness property behind every warm-start
// use: perturb one random row of a random matrix by up to ±50%, balance
// cold and warm (seeded with the unperturbed matrix's scalings) to a tight
// 1e-12 tolerance, and require the standard forms and the profile (TMA)
// aggregate to agree within 1e-10. Theorem 1 says the scaling is unique, so
// the starting point must not change the limit — warm and cold solves land
// on the same fixed point, differing only by their stopping residuals.
func TestWarmStartMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	f := func(da, db, row byte, seed int64) bool {
		r, c := 2+int(da)%10, 2+int(db)%10
		a := randomPositive(r, c, seed)
		base, err := sinkhorn.Standardize(a)
		if err != nil {
			return false
		}
		// Perturb one row multiplicatively.
		src := rand.New(rand.NewSource(seed ^ 0x9E3779B9))
		i := int(row) % r
		for j := 0; j < c; j++ {
			a.Set(i, j, a.At(i, j)*(0.5+src.Float64()))
		}
		rowT, colT := sinkhorn.StandardTargets(r, c)
		opt := sinkhorn.Options{RowTarget: rowT, ColTarget: colT, Tol: 1e-12, TrimUnsupported: true}
		cold, err := sinkhorn.Balance(context.Background(), a, opt)
		if err != nil {
			return false
		}
		opt.Warm = warmOf(base)
		warm, err := sinkhorn.Balance(context.Background(), a, opt)
		if err != nil {
			return false
		}
		if !matrix.EqualTol(cold.Scaled, warm.Scaled, 1e-10) {
			t.Logf("%dx%d seed %d: warm and cold standard forms differ by %g",
				r, c, seed, matrix.Sub(cold.Scaled, warm.Scaled).MaxAbs())
			return false
		}
		if d := math.Abs(tmaOf(cold) - tmaOf(warm)); d > 1e-10 {
			t.Logf("%dx%d seed %d: warm and cold TMA differ by %g", r, c, seed, d)
			return false
		}
		// The invariant Scaled = D1·A·D2 must hold for the warm run too.
		recon := a.Clone().ScaleRows(warm.D1).ScaleCols(warm.D2)
		return matrix.EqualTol(recon, warm.Scaled, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestWarmStartFewerIterations pins the performance claim: on 1%-perturbation
// what-if solves over realistic heterogeneous ETC matrices, a warm start
// (seed + over-relaxation) converges in at least 2x fewer Sinkhorn rounds
// than a cold start, aggregated over many trials, while the TMA aggregate
// stays within 1e-10 of the cold result.
func TestWarmStartFewerIterations(t *testing.T) {
	for _, sh := range [][2]int{{30, 20}, {150, 80}} {
		coldIters, warmIters := 0, 0
		maxTMADiff := 0.0
		for trial := int64(0); trial < 30; trial++ {
			a := rangeECS(t, sh[0], sh[1], 1000+trial)
			base, err := sinkhorn.Standardize(a)
			if err != nil {
				t.Fatal(err)
			}
			seed := warmOf(base)
			src := rand.New(rand.NewSource(2000 + trial))
			i, j := src.Intn(sh[0]), src.Intn(sh[1])
			a.Set(i, j, a.At(i, j)*1.01)
			cold, err := sinkhorn.Standardize(a)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := standardize(a, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			coldIters += cold.Iterations
			warmIters += warm.Iterations
			if d := math.Abs(tmaOf(cold) - tmaOf(warm)); d > maxTMADiff {
				maxTMADiff = d
			}
		}
		if coldIters < 2*warmIters {
			t.Errorf("%dx%d: warm start saved too little: cold %d iterations vs warm %d (want >= 2x)",
				sh[0], sh[1], coldIters, warmIters)
		}
		if maxTMADiff > 1e-10 {
			t.Errorf("%dx%d: warm TMA drifted %g from cold (want <= 1e-10)", sh[0], sh[1], maxTMADiff)
		}
		t.Logf("%dx%d 1%%-perturbation solves: cold %d iterations, warm %d (%.2fx), max TMA diff %.2g",
			sh[0], sh[1], coldIters, warmIters, float64(coldIters)/float64(warmIters), maxTMADiff)
	}
}

// TestWarmStartExactSeed: seeding with the matrix's own converged scalings
// must converge immediately (one residual round) and stay on the same fixed
// point.
func TestWarmStartExactSeed(t *testing.T) {
	a := randomPositive(12, 9, 7)
	base, err := sinkhorn.Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	again, err := standardize(a, warmOf(base), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Iterations > 1 {
		t.Errorf("exact seed took %d iterations, want 1", again.Iterations)
	}
	// The re-solve polishes the seed's own tolerance-level residual, so the
	// standard forms agree to the convergence tolerance and the spectral
	// aggregate much closer.
	if !matrix.EqualTol(base.Scaled, again.Scaled, sinkhorn.DefaultTol) {
		t.Error("exact seed moved the standard form beyond tolerance")
	}
	if d := math.Abs(tmaOf(base) - tmaOf(again)); d > 1e-10 {
		t.Errorf("exact seed moved TMA by %g", d)
	}
}

// TestWarmStartWorkspace: the warm path composes with pooled workspaces and
// leaves the ws-backed result equal to the allocation path's.
func TestWarmStartWorkspace(t *testing.T) {
	a := randomPositive(10, 14, 11)
	base, err := sinkhorn.Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	a.Set(3, 5, a.At(3, 5)*1.02)
	fresh, err := standardize(a, warmOf(base), nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := sinkhorn.NewWorkspace()
	pooled, err := standardize(a, warmOf(base), ws)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualTol(fresh.Scaled, pooled.Scaled, 0) {
		t.Error("workspace-backed warm standardization differs from the allocating path")
	}
	if fresh.Iterations != pooled.Iterations {
		t.Errorf("iteration counts differ: %d (fresh) vs %d (ws)", fresh.Iterations, pooled.Iterations)
	}
}

// TestWarmStartValidation: dimension mismatches and non-positive seeds are
// rejected up front rather than silently producing a wrong scaling.
func TestWarmStartValidation(t *testing.T) {
	a := randomPositive(4, 3, 1)
	cases := []*sinkhorn.WarmStart{
		{D1: []float64{1, 1, 1}, D2: []float64{1, 1, 1}},                         // short D1
		{D1: []float64{1, 1, 1, 1}, D2: []float64{1, 1}},                         // short D2
		{D1: []float64{1, 0, 1, 1}, D2: []float64{1, 1, 1}},                      // zero entry
		{D1: []float64{1, -2, 1, 1}, D2: []float64{1, 1, 1}},                     // negative entry
		{D1: []float64{1, 1, 1, 1}, D2: []float64{1, math.Inf(1), 1}},            // infinite entry
		{D1: []float64{1, 1, 1, 1}, D2: []float64{1, math.NaN(), 1}},             // NaN entry
		{D1: []float64{1, 1, 1, 1}, D2: []float64{1, 1, 1}, Sigma2: math.NaN()},  // NaN sigma2
		{D1: []float64{1, 1, 1, 1}, D2: []float64{1, 1, 1}, Sigma2: math.Inf(1)}, // infinite sigma2
	}
	for i, warm := range cases {
		if _, err := standardize(a, warm, nil); err == nil {
			t.Errorf("case %d: invalid warm start accepted", i)
		}
	}
	// A sigma2 outside (0, 1) is not an error — it just disables
	// over-relaxation (e.g. a degenerate rank-one standard form).
	base, err := sinkhorn.Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := standardize(a, &sinkhorn.WarmStart{
		D1: matrix.VecClone(base.D1), D2: matrix.VecClone(base.D2), Sigma2: 1.5,
	}, nil); err != nil {
		t.Errorf("out-of-range sigma2 should disable SOR, not fail: %v", err)
	}
	// A nil warm start must behave exactly like the cold path.
	cold, err := sinkhorn.Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	nilWarm, err := standardize(a, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualTol(cold.Scaled, nilWarm.Scaled, 0) || cold.Iterations != nilWarm.Iterations {
		t.Error("nil warm start diverged from the cold path")
	}
}

// TestWarmStartRowRemoval mirrors the leave-one-out use: drop a row, seed the
// reduced solve with the baseline scalings minus that row's entry, and check
// the result matches the reduced matrix's cold standardization.
func TestWarmStartRowRemoval(t *testing.T) {
	a := randomPositive(15, 10, 21)
	base, err := sinkhorn.Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	seed := warmOf(base)
	const drop = 6
	rows := make([]int, 0, 14)
	d1 := make([]float64, 0, 14)
	for i := 0; i < 15; i++ {
		if i != drop {
			rows = append(rows, i)
			d1 = append(d1, seed.D1[i])
		}
	}
	cols := make([]int, 10)
	for j := range cols {
		cols[j] = j
	}
	reduced := a.Submatrix(rows, cols)
	cold, err := sinkhorn.Standardize(reduced)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := standardize(reduced, &sinkhorn.WarmStart{
		D1: d1, D2: matrix.VecClone(seed.D2), Sigma2: seed.Sigma2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(tmaOf(cold) - tmaOf(warm)); d > 1e-10 {
		t.Errorf("row-removal warm TMA differs from cold by %g", d)
	}
	if !matrix.EqualTol(cold.Scaled, warm.Scaled, sinkhorn.DefaultTol) {
		t.Errorf("row-removal warm solve differs from cold by %g",
			matrix.Sub(cold.Scaled, warm.Scaled).MaxAbs())
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("row-removal warm start took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
}
