package etcmat

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/matrix"
)

func memoTestEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewFromECS(matrix.FromRows([][]float64{
		{4, 1, 1},
		{1, 4, 1},
		{1, 1, 4},
		{2, 3, 5},
	}))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestMemoizedSumsMatchMatrix checks the memoized weighted sums against the
// sums computed directly from the weighted matrix.
func TestMemoizedSumsMatchMatrix(t *testing.T) {
	env := memoTestEnv(t)
	w := env.WeightedECS()
	wantRows, wantCols := w.RowSums(), w.ColSums()
	gotRows, gotCols := env.WeightedRowSums(), env.WeightedColSums()
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("row sum %d: memo %v, matrix %v", i, gotRows[i], wantRows[i])
		}
	}
	for j := range wantCols {
		if gotCols[j] != wantCols[j] {
			t.Errorf("col sum %d: memo %v, matrix %v", j, gotCols[j], wantCols[j])
		}
	}
	// Returned slices must be private copies: scribbling on one must not leak
	// into later queries.
	gotRows[0] = -1
	if env.WeightedRowSums()[0] == -1 {
		t.Fatal("WeightedRowSums returned a live reference to the memo")
	}
}

// TestMemoInvalidatedByMutators checks that derived-state memoization cannot
// leak across the immutable-Env mutators: a derived Env must answer from its
// own matrix, not its parent's memo.
func TestMemoInvalidatedByMutators(t *testing.T) {
	env := memoTestEnv(t)
	// Populate the parent's memo first.
	_ = env.WeightedColSums()
	if _, _, err := env.StandardForm(); err != nil {
		t.Fatal(err)
	}

	weights := []float64{10, 1, 1, 1}
	reweighted, err := env.WithWeights(weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := reweighted.WeightedECS()
	wantCols := w.ColSums()
	gotCols := reweighted.WeightedColSums()
	for j := range wantCols {
		if gotCols[j] != wantCols[j] {
			t.Errorf("after WithWeights, col sum %d: memo %v, matrix %v", j, gotCols[j], wantCols[j])
		}
	}

	sub, err := env.Subenv([]int{0, 1, 2}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(sub.WeightedColSums()), 2; got != want {
		t.Fatalf("subenv memo answered with %d columns, want %d", got, want)
	}
}

// TestStandardFormConcurrent hammers the memo from many goroutines; run with
// -race this is the regression test for the build-once locking. All callers
// must observe the same converged standard form.
func TestStandardFormConcurrent(t *testing.T) {
	env := memoTestEnv(t)
	const goroutines = 16
	type result struct {
		sigma1 float64
		rows   []float64
		cols   []float64
	}
	results := make([]result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Mix all memoized queries so first-call races cover every field.
			rows := env.WeightedRowSums()
			cols := env.WeightedColSums()
			_, sv, err := env.StandardForm()
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = result{sv[0], rows, cols}
		}(g)
	}
	wg.Wait()
	for g, r := range results {
		if math.Abs(r.sigma1-1) > 1e-6 {
			t.Errorf("goroutine %d: sigma1 = %v, want 1", g, r.sigma1)
		}
		for i := range r.rows {
			if r.rows[i] != results[0].rows[i] {
				t.Errorf("goroutine %d: row sums diverge at %d", g, i)
			}
		}
		for j := range r.cols {
			if r.cols[j] != results[0].cols[j] {
				t.Errorf("goroutine %d: col sums diverge at %d", g, j)
			}
		}
	}
}

// Default names are t1…tT and m1…mM.
func TestDefaultNames(t *testing.T) {
	env := memoTestEnv(t)
	if got := strings.Join(env.TaskNames(), ","); got != "t1,t2,t3,t4" {
		t.Errorf("task names %s", got)
	}
	if got := strings.Join(env.MachineNames(), ","); got != "m1,m2,m3" {
		t.Errorf("machine names %s", got)
	}
	if got := defaultNames("m", 12)[11]; got != "m12" {
		t.Errorf("name 12 is %q", got)
	}
}

// Under unit weights the weighted matrix is the ECS matrix itself (x·1 is
// x exactly); any other weight gets a scaled copy. ReleaseBuffers empties
// both kinds.
func TestUnitWeightsShareECS(t *testing.T) {
	env := memoTestEnv(t)
	if env.weightedECS() != env.ecs {
		t.Fatal("unit weights copied the ECS matrix")
	}
	if !matrix.EqualTol(env.WeightedECS(), env.ECS(), 0) {
		t.Fatal("weighted matrix differs from the ECS matrix under unit weights")
	}
	weighted, err := memoTestEnv(t).WithWeights([]float64{1, 2, 1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.weightedECS() == weighted.ecs {
		t.Fatal("non-unit weights share the ECS matrix")
	}
	if got := weighted.WeightedECS().At(1, 2); got != 2 {
		t.Errorf("weighted cell (1,2) = %v, want 2", got)
	}
	for _, e := range []*Env{env, weighted} {
		e.ReleaseBuffers()
		if e.ecs != nil || e.memo.weighted != nil {
			t.Fatal("ReleaseBuffers kept a matrix")
		}
	}
}
