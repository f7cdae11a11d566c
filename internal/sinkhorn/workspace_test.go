package sinkhorn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// TestBalanceWSMatchesBalance runs the same inputs through the fresh and the
// workspace-backed paths, including shape changes that force the workspace
// buffers to be resized and reused, and requires bit-identical results.
func TestBalanceWSMatchesBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ws := NewWorkspace()
	for trial := 0; trial < 25; trial++ {
		r := 2 + rng.Intn(12)
		c := 2 + rng.Intn(12)
		a := randPositive(rng, r, c)
		fresh, errF := Standardize(a)
		rt, ct := StandardTargets(a.Dims())
		pooled, errW := Balance(context.Background(), a, Options{RowTarget: rt, ColTarget: ct, TrimUnsupported: true, Workspace: ws})
		if (errF == nil) != (errW == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errF, errW)
		}
		if errF != nil {
			continue
		}
		if !matrix.EqualTol(fresh.Scaled, pooled.Scaled, 0) {
			t.Fatalf("trial %d: workspace Scaled differs from fresh path", trial)
		}
		if !matrix.VecEqualTol(fresh.D1, pooled.D1, 0) || !matrix.VecEqualTol(fresh.D2, pooled.D2, 0) {
			t.Fatalf("trial %d: workspace diagonals differ from fresh path", trial)
		}
		if fresh.Iterations != pooled.Iterations || fresh.Converged != pooled.Converged {
			t.Fatalf("trial %d: diagnostics differ: %+v vs %+v", trial, fresh, pooled)
		}
	}
}

// TestBalanceWSDoesNotMutateInput pins that the workspace path copies the
// input rather than balancing it in place.
func TestBalanceWSDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a := randPositive(rng, 5, 7)
	orig := a.Clone()
	rt, ct := StandardTargets(a.Dims())
	if _, err := Balance(context.Background(), a, Options{RowTarget: rt, ColTarget: ct, TrimUnsupported: true, Workspace: NewWorkspace()}); err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualTol(a, orig, 0) {
		t.Error("Balance mutated its input")
	}
}

// TestBalanceWSZeroAlloc pins the steady-state allocation contract of the
// workspace path on strictly positive input.
func TestBalanceWSZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	a := randPositive(rng, 16, 8)
	ws := NewWorkspace()
	rt, ct := StandardTargets(a.Dims())
	opt := Options{RowTarget: rt, ColTarget: ct, TrimUnsupported: true, Workspace: ws}
	if _, err := Balance(context.Background(), a, opt); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Balance(context.Background(), a, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Balance allocates %g times per op, want 0", allocs)
	}
}

// A warm-seeded run on a workspace allocates nothing either, once the
// buffers are warm.
func TestBalanceWSWarmZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	a := randPositive(rng, 16, 8)
	rt, ct := StandardTargets(a.Dims())
	cold, err := Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	warm := &WarmStart{D1: matrix.VecClone(cold.D1), D2: matrix.VecClone(cold.D2), Sigma2: 0.5}
	for i := range warm.D1 {
		warm.D1[i] *= 1.01
	}
	opt := Options{RowTarget: rt, ColTarget: ct, TrimUnsupported: true, Warm: warm, Workspace: NewWorkspace()}
	if _, err := Balance(context.Background(), a, opt); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Balance(context.Background(), a, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm-seeded Balance allocates %g times per op, want 0", allocs)
	}
}

// A negative or NaN cell outranks a bad option, as it did when the input
// was checked first; on valid options the one set-up sweep reports it.
func TestBalanceErrorPrecedence(t *testing.T) {
	neg := matrix.FromRows([][]float64{{1, 2}, {3, -4}})
	nan := matrix.FromRows([][]float64{{1, math.NaN()}, {3, 4}})
	rt, ct := StandardTargets(2, 2)
	for _, tc := range []struct {
		name string
		a    *matrix.Dense
		opt  Options
		want string
	}{
		{"negative, bad targets", neg, Options{RowTarget: -1, ColTarget: ct}, "sinkhorn: input must be nonnegative"},
		{"NaN, bad seed", nan, Options{RowTarget: rt, ColTarget: ct, Warm: &WarmStart{D1: []float64{1}}}, "sinkhorn: input must be nonnegative"},
		{"negative, fresh", neg, Options{RowTarget: rt, ColTarget: ct}, "sinkhorn: input must be nonnegative"},
		{"NaN, workspace", nan, Options{RowTarget: rt, ColTarget: ct, Workspace: NewWorkspace()}, "sinkhorn: input must be nonnegative"},
		{"bad targets", matrix.FromRows([][]float64{{1, 2}, {3, 4}}), Options{RowTarget: 1, ColTarget: 2}, "sinkhorn: inconsistent targets: rows*RowTarget = 2 but cols*ColTarget = 4"},
	} {
		_, err := Balance(context.Background(), tc.a, tc.opt)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}
