package sinkhorn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/matrix"
)

func randPositive(rng *rand.Rand, r, c int) *matrix.Dense {
	m := matrix.New(r, c)
	for i := range m.RawData() {
		m.RawData()[i] = 0.1 + rng.Float64()*10
	}
	return m
}

func checkSums(t *testing.T, w *matrix.Dense, rowTarget, colTarget, tol float64) {
	t.Helper()
	for i, s := range w.RowSums() {
		if math.Abs(s-rowTarget) > tol {
			t.Errorf("row %d sum = %g, want %g", i, s, rowTarget)
		}
	}
	for j, s := range w.ColSums() {
		if math.Abs(s-colTarget) > tol {
			t.Errorf("col %d sum = %g, want %g", j, s, colTarget)
		}
	}
}

func TestStandardTargets(t *testing.T) {
	rt, ct := StandardTargets(12, 5)
	if math.Abs(rt-math.Sqrt(5.0/12.0)) > 1e-15 {
		t.Errorf("rowTarget = %g", rt)
	}
	if math.Abs(ct-math.Sqrt(12.0/5.0)) > 1e-15 {
		t.Errorf("colTarget = %g", ct)
	}
	// Consistency: T*rowTarget == M*colTarget == sqrt(T*M).
	if math.Abs(12*rt-5*ct) > 1e-12 {
		t.Errorf("targets inconsistent: %g vs %g", 12*rt, 5*ct)
	}
}

func TestBalancePositiveSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	a := randPositive(rng, 6, 6)
	res, err := Balance(context.Background(), a, Options{RowTarget: 1, ColTarget: 1})
	if err != nil {
		t.Fatalf("Balance: %v", err)
	}
	if !res.Converged {
		t.Fatal("did not converge on positive matrix")
	}
	checkSums(t, res.Scaled, 1, 1, 1e-7)
}

// Theorem 1: for positive rectangular matrices the standard form exists, is
// reached by the iteration, and equals D1·A·D2.
func TestStandardizePositiveRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range [][2]int{{12, 5}, {5, 12}, {3, 3}, {17, 5}, {2, 9}} {
		a := randPositive(rng, dims[0], dims[1])
		res, err := Standardize(a)
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		rt, ct := StandardTargets(dims[0], dims[1])
		checkSums(t, res.Scaled, rt, ct, 1e-7)
		// Scaled == D1 A D2.
		recon := a.Clone().ScaleRows(res.D1).ScaleCols(res.D2)
		if !matrix.EqualTol(recon, res.Scaled, 1e-10) {
			t.Errorf("%v: D1·A·D2 != Scaled, diff %g", dims, matrix.Sub(recon, res.Scaled).MaxAbs())
		}
	}
}

// Theorem 2: the largest singular value of the standard form is 1.
func TestTheorem2LargestSingularValueIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		r := 2 + rng.Intn(10)
		c := 2 + rng.Intn(10)
		a := randPositive(rng, r, c)
		res, err := Standardize(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s := linalg.SingularValues(res.Scaled, nil)
		if math.Abs(s[0]-1) > 1e-6 {
			t.Errorf("trial %d (%dx%d): σ1 = %g, want 1", trial, r, c, s[0])
		}
	}
}

// Theorem 1 uniqueness: D1 and D2 are unique up to reciprocal scalar
// multiples, so the standard form itself is unique — balancing any
// pre-scaled version k·A must give the same standard matrix.
func TestStandardFormUniqueUnderScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randPositive(rng, 5, 7)
	r1, err := Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Standardize(a.Scaled(37.5))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualTol(r1.Scaled, r2.Scaled, 1e-6) {
		t.Error("standard form changed under input scaling")
	}
}

// Uniqueness also holds against arbitrary positive row/column pre-scalings:
// standardize(D1 A D2) == standardize(A).
func TestStandardFormInvariantToDiagonalPrescaling(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := randPositive(rng, 4, 6)
	d1 := make([]float64, 4)
	d2 := make([]float64, 6)
	for i := range d1 {
		d1[i] = 0.1 + rng.Float64()*5
	}
	for j := range d2 {
		d2[j] = 0.1 + rng.Float64()*5
	}
	pre := a.Clone().ScaleRows(d1).ScaleCols(d2)
	r1, err1 := Standardize(a)
	r2, err2 := Standardize(pre)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if !matrix.EqualTol(r1.Scaled, r2.Scaled, 1e-6) {
		t.Errorf("standard form not invariant to diagonal prescaling, diff %g",
			matrix.Sub(r1.Scaled, r2.Scaled).MaxAbs())
	}
}

func TestBalanceAlreadyStandardConvergesImmediately(t *testing.T) {
	// A constant 2x2 matrix with entries 1/2 is doubly stochastic.
	a := matrix.Constant(2, 2, 0.5)
	res, err := Balance(context.Background(), a, Options{RowTarget: 1, ColTarget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1 for already-balanced input", res.Iterations)
	}
}

func TestBalanceZeroRowRejected(t *testing.T) {
	a := matrix.FromRows([][]float64{{0, 0}, {1, 2}})
	_, err := Balance(context.Background(), a, Options{RowTarget: 1, ColTarget: 1})
	if !errors.Is(err, ErrZeroLine) {
		t.Errorf("err = %v, want ErrZeroLine", err)
	}
}

func TestBalanceZeroColRejected(t *testing.T) {
	a := matrix.FromRows([][]float64{{0, 1}, {0, 2}})
	_, err := Balance(context.Background(), a, Options{RowTarget: 1, ColTarget: 1})
	if !errors.Is(err, ErrZeroLine) {
		t.Errorf("err = %v, want ErrZeroLine", err)
	}
}

func TestBalanceNegativeRejected(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, -1}, {1, 2}})
	if _, err := Balance(context.Background(), a, Options{RowTarget: 1, ColTarget: 1}); err == nil {
		t.Error("negative input accepted")
	}
}

func TestBalanceInconsistentTargetsRejected(t *testing.T) {
	a := matrix.Constant(2, 3, 1)
	_, err := Balance(context.Background(), a, Options{RowTarget: 1, ColTarget: 1})
	if err == nil {
		t.Error("inconsistent targets accepted (2*1 != 3*1)")
	}
}

func TestBalanceBadTargetsRejected(t *testing.T) {
	a := matrix.Constant(2, 2, 1)
	if _, err := Balance(context.Background(), a, Options{RowTarget: 0, ColTarget: 1}); err == nil {
		t.Error("zero target accepted")
	}
}

// The paper's Eq. 10 matrix is decomposable: the iteration must not converge,
// and must say so.
func TestEq10DoesNotConverge(t *testing.T) {
	a := matrix.FromRows([][]float64{
		{0, 1, 0},
		{1, 0, 1},
		{0, 1, 1},
	})
	res, err := Balance(context.Background(), a, Options{RowTarget: 1, ColTarget: 1, MaxIter: 500})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if res == nil || res.Converged {
		t.Fatal("result should report non-convergence")
	}
	if res.MaxDeviation < 1e-3 {
		t.Errorf("deviation %g suspiciously small for a non-scalable matrix", res.MaxDeviation)
	}
}

// Support without total support (paper Fig. 4 A/B/D style): the entrywise
// limit exists — unsupported entries decay to zero and the sums converge —
// so Balance converges, but the limit has more zeros than the input.
func TestSupportWithoutTotalSupportConvergesEntrywise(t *testing.T) {
	a := matrix.FromRows([][]float64{{10, 0}, {45, 55}})
	res, err := Standardize(a)
	if err != nil {
		t.Fatalf("expected entrywise convergence, got %v", err)
	}
	// Limit is the standard form of the identity pattern: diag(√1, √1) = I
	// scaled to row target 1 (T = M = 2 gives targets 1, 1).
	want := matrix.Identity(2)
	if !matrix.EqualTol(res.Scaled, want, 1e-6) {
		t.Errorf("limit = \n%v want identity", res.Scaled)
	}
	if res.Trimmed != 1 {
		t.Errorf("Trimmed = %d, want 1 (the unsupported (1,0) entry)", res.Trimmed)
	}
}

// Raw Eq. 9 iteration (no trimming) on the same matrix approaches the same
// limit, but only sublinearly: after a bounded number of iterations the
// iterate is already close to the trimmed limit even though the paper
// tolerance is not reached.
func TestSupportWithoutTotalSupportRawIterationApproachesLimit(t *testing.T) {
	a := matrix.FromRows([][]float64{{10, 0}, {45, 55}})
	res, err := Balance(context.Background(), a, Options{RowTarget: 1, ColTarget: 1, MaxIter: 5000})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("raw iteration should not reach 1e-8 here, got err = %v", err)
	}
	if !matrix.EqualTol(res.Scaled, matrix.Identity(2), 1e-2) {
		t.Errorf("raw iterate far from the entrywise limit:\n%v", res.Scaled)
	}
}

// Rectangular block-disjoint patterns balance exactly: the tiled pattern has
// total support and the direct iteration converges to the block form.
func TestStandardizeRectangularBlockPattern(t *testing.T) {
	a := matrix.FromRows([][]float64{
		{1, 1, 0, 0},
		{0, 0, 1, 1},
	})
	res, err := Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trimmed != 0 {
		t.Errorf("block pattern should not be trimmed, got %d", res.Trimmed)
	}
	rt, ct := StandardTargets(2, 4)
	checkSums(t, res.Scaled, rt, ct, 1e-7)
}

// A 3x2 pattern whose columns have disjoint support of mismatched sizes
// cannot be balanced: one column's single entry would have to equal both the
// row and column targets. The Sec. VI tiling analysis must reject it with
// ErrNoSupport instead of iterating forever.
func TestStandardizeRectangularImpossiblePattern(t *testing.T) {
	a := matrix.FromRows([][]float64{
		{2, 0},
		{0, 5},
		{3, 0},
	})
	if _, err := Standardize(a); !errors.Is(err, ErrNoSupport) {
		t.Errorf("err = %v, want ErrNoSupport", err)
	}
}

// Rectangular support-without-total-support: the unsupported entry is
// trimmed via the tiling analysis and the limit balances geometrically.
func TestStandardizeRectangularTrims(t *testing.T) {
	// 2x4: the (0,2) entry rides on no positive diagonal of the tiling —
	// columns 2 and 3 must both be served by row 1's copies once (0,2) is
	// considered, overloading them.
	a := matrix.FromRows([][]float64{
		{1, 1, 1, 0},
		{0, 0, 1, 1},
	})
	res, err := Standardize(a)
	if err != nil {
		t.Fatalf("expected entrywise convergence via trimming, got %v", err)
	}
	rt, ct := StandardTargets(2, 4)
	checkSums(t, res.Scaled, rt, ct, 1e-7)
	if res.Trimmed != 1 {
		t.Errorf("Trimmed = %d, want 1 (the (0,2) entry, verified against the raw iteration limit)", res.Trimmed)
	}
	if res.Scaled.At(0, 2) != 0 {
		t.Errorf("(0,2) = %g, want 0 in the limit", res.Scaled.At(0, 2))
	}
}

// Standardize must refuse square patterns without any positive diagonal.
func TestStandardizeNoSupport(t *testing.T) {
	// Rows 0 and 1 live only in column 0 — max matching has size 2 < 3, but
	// no zero row/column exists.
	a := matrix.FromRows([][]float64{
		{1, 0, 0},
		{2, 0, 0},
		{3, 4, 5},
	})
	if _, err := Standardize(a); !errors.Is(err, ErrNoSupport) {
		t.Errorf("err = %v, want ErrNoSupport", err)
	}
}

// Convergence is geometric for positive matrices: well-conditioned inputs
// converge in a handful of iterations at the paper's 1e-8 tolerance.
func TestConvergenceSpeedOnMildMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	a := randPositive(rng, 12, 5)
	res, err := Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 50 {
		t.Errorf("took %d iterations, expected fast geometric convergence", res.Iterations)
	}
}

func TestBalanceDoesNotMutateInput(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	orig := a.Clone()
	if _, err := Balance(context.Background(), a, Options{RowTarget: 1, ColTarget: 1}); err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualTol(a, orig, 0) {
		t.Error("Balance mutated its input")
	}
}

func TestBalanceEmptyRejected(t *testing.T) {
	if _, err := Standardize(matrix.New(0, 0)); err == nil {
		t.Error("empty matrix accepted")
	}
}

// Balance must also work with custom consistent targets (Theorem 1 general k):
// rows sum to M*k, columns to T*k.
func TestBalanceCustomK(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	a := randPositive(rng, 3, 4)
	k := 2.5
	res, err := Balance(context.Background(), a, Options{RowTarget: 4 * k, ColTarget: 3 * k})
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, res.Scaled, 4*k, 3*k, 1e-7)
}
