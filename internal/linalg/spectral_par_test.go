package linalg

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
)

func randTest(rng *rand.Rand, r, c int) *matrix.Dense {
	m := matrix.New(r, c)
	d := m.RawData()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return m
}

func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SingularValuesPar promises the exact bits of the serial pipeline at every
// worker count. The shapes straddle spectralParMin: below it the parallel
// path must fall through to serial untouched; above it the fan-out must not
// move a single ulp.
func TestSingularValuesParBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, dims := range [][2]int{{40, 60}, {100, 80}, {280, 300}, {300, 260}} {
		a := randTest(rng, dims[0], dims[1])
		want := AppendSingularValues(nil, a, NewWorkspace())
		for _, w := range []int{1, 2, 4, 8} {
			got := SingularValuesPar(a, NewWorkspace(), w)
			if !floatsBitEqual(got, want) {
				t.Errorf("%v workers=%d: parallel spectrum differs from serial", dims, w)
			}
		}
	}
}

// White-box check of the Householder stage on its own: the worker variant
// must produce the exact d/e recurrence of the serial reduction, including
// past the tridiagParMin crossover where late small panels run serially.
func TestTridiagonalizeWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{5, 64, 250} {
		a := randTest(rng, n+7, n)
		g := matrix.AtAInto(matrix.New(n, n), a)
		dWant := make([]float64, n)
		eWant := make([]float64, n)
		tridiagonalize(g.Clone(), dWant, eWant)
		for _, w := range []int{2, 4, 7} {
			d := make([]float64, n)
			e := make([]float64, n)
			tridiagonalizeWorkers(g.Clone(), d, e, w)
			if !floatsBitEqual(d, dWant) || !floatsBitEqual(e, eWant) {
				t.Errorf("n=%d workers=%d: parallel tridiagonalization differs", n, w)
			}
		}
	}
}

// Pounding test for the race detector: concurrent parallel spectral solves
// (each with its own workspace) over one shared input, above the size
// threshold so the fan-out actually engages.
func TestSingularValuesParConcurrentCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	rng := rand.New(rand.NewSource(83))
	a := randTest(rng, 280, 260)
	want := AppendSingularValues(nil, a, NewWorkspace())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := NewWorkspace()
			for iter := 0; iter < 3; iter++ {
				if got := SingularValuesPar(a, ws, 4); !floatsBitEqual(got, want) {
					t.Error("concurrent SingularValuesPar deviated")
					return
				}
			}
		}()
	}
	wg.Wait()
}
