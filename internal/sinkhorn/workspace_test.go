package sinkhorn

import (
	"context"
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
