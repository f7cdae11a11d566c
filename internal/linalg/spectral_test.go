package linalg

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// spectralAgrees checks the fast path against the Jacobi SVD oracle to an
// absolute 1e-10 on every singular value.
func spectralAgrees(t *testing.T, a *matrix.Dense, label string) {
	t.Helper()
	got := SingularValues(a, nil)
	want := SVDJacobi(a).S
	if len(got) != len(want) {
		t.Fatalf("%s: %d singular values, oracle has %d", label, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(got[i]) {
			t.Fatalf("%s: σ%d is NaN", label, i)
		}
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("%s: σ%d = %.15g, oracle %.15g (Δ %g)", label, i, got[i], want[i], got[i]-want[i])
		}
	}
}

// TestSpectralMatchesJacobi is the property test pinning the Gram +
// tridiagonal QL path to the Jacobi SVD within 1e-10 across tall, wide,
// square and rank-deficient shapes.
func TestSpectralMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		r := 1 + rng.Intn(60)
		c := 1 + rng.Intn(40)
		a := matrix.New(r, c)
		for i := range a.RawData() {
			a.RawData()[i] = 2*rng.Float64() - 1
		}
		spectralAgrees(t, a, "random")
	}
	// Dedicated shape sweep, including the benchmark shape.
	for _, dims := range [][2]int{{60, 40}, {40, 60}, {48, 48}, {1, 12}, {12, 1}, {2, 2}} {
		a := randMat(rng, dims[0], dims[1]).Scale(0.5)
		spectralAgrees(t, a, "shape")
	}
}

// TestSpectralRankDeficient covers the degenerate spectra the satellite task
// names: rank-deficient Gram matrices must yield exact zeros, never NaN.
func TestSpectralRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	// Rank-1 outer products at several shapes (the rank-1 ECS matrix case).
	for _, dims := range [][2]int{{6, 4}, {4, 6}, {12, 12}, {60, 40}} {
		u := make([]float64, dims[0])
		v := make([]float64, dims[1])
		for i := range u {
			u[i] = 0.2 + rng.Float64()
		}
		for j := range v {
			v[j] = 0.2 + rng.Float64()
		}
		a := matrix.New(dims[0], dims[1])
		for i := range u {
			for j := range v {
				a.Set(i, j, u[i]*v[j])
			}
		}
		s := SingularValues(a, nil)
		want := matrix.Nrm2(u) * matrix.Nrm2(v)
		if math.Abs(s[0]-want) > 1e-10*(1+want) {
			t.Errorf("%v: σ1 = %g, want %g", dims, s[0], want)
		}
		for i, v := range s[1:] {
			if math.IsNaN(v) {
				t.Fatalf("%v: σ%d is NaN on rank-1 input", dims, i+2)
			}
			if v != 0 {
				t.Errorf("%v: σ%d = %g, want exact 0 (noise-floor clamp)", dims, i+2, v)
			}
		}
		spectralAgrees(t, a, "rank-1")
	}
	// Rank-2: two independent outer products.
	a := randMat(rng, 9, 2)
	b := randMat(rng, 2, 7)
	prod := matrix.Mul(a, b)
	s := SingularValues(prod, nil)
	for _, v := range s[2:] {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("rank-2: trailing σ = %g, want 0", v)
		}
	}
	spectralAgrees(t, prod, "rank-2")
	// All-zero matrix.
	for _, v := range SingularValues(matrix.New(5, 3), nil) {
		if v != 0 {
			t.Errorf("zero matrix: σ = %g", v)
		}
	}
}

// TestSpectralNearZeroGram drives the near-zero Gram regime: entries so small
// the Gram matrix underflows toward the noise floor must still produce finite
// nonnegative values.
func TestSpectralNearZeroGram(t *testing.T) {
	a := matrix.Constant(8, 5, 1e-160)
	for _, v := range SingularValues(a, nil) {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("near-zero input produced σ = %g", v)
		}
	}
	// A duplicated-column matrix (exactly repeated spectra direction).
	dup := matrix.FromRows([][]float64{{1, 1, 2}, {3, 3, 1}, {2, 2, 5}, {4, 4, 0.5}})
	spectralAgrees(t, dup, "duplicated-columns")
}

// TestSpectralWorkspaceReuse runs many spectra of different shapes through
// one workspace and through the pool, checking results are independent of
// the scratch history.
func TestSpectralWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ws := NewWorkspace()
	var buf []float64
	for trial := 0; trial < 40; trial++ {
		a := randMat(rng, 1+rng.Intn(20), 1+rng.Intn(20))
		buf = AppendSingularValues(buf[:0], a, ws)
		fresh := SVDJacobi(a).S
		if !matrix.VecEqualTol(buf, fresh, 1e-10) {
			t.Fatalf("trial %d: reused workspace gave %v, fresh oracle %v", trial, buf, fresh)
		}
	}
	// Pool round trip.
	pws := GetWorkspace()
	a := randMat(rng, 10, 6)
	s1 := SingularValues(a, pws)
	PutWorkspace(pws)
	s2 := SingularValues(a, nil)
	if !matrix.VecEqualTol(s1, s2, 0) {
		t.Errorf("pooled vs nil workspace disagree: %v vs %v", s1, s2)
	}
}

// TestAppendSingularValuesZeroAlloc pins the fast path's allocation contract:
// with a caller-held workspace and a reused destination slice, a warm call
// does not allocate.
func TestAppendSingularValuesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	a := randMat(rng, 16, 8)
	ws := NewWorkspace()
	buf := make([]float64, 0, 8)
	buf = AppendSingularValues(buf, a, ws) // warm the buffers
	allocs := testing.AllocsPerRun(50, func() {
		buf = AppendSingularValues(buf[:0], a, ws)
	})
	if allocs != 0 {
		t.Errorf("warm AppendSingularValues allocates %g times per op, want 0", allocs)
	}
}

// TestQLBudgetFallsBackToJacobi: a QL iteration that trips its budget must
// hand back the Jacobi SVD's spectrum and count one fallback.
func TestQLBudgetFallsBackToJacobi(t *testing.T) {
	defer func(n int) { qlMaxIter = n }(qlMaxIter)
	qlMaxIter = 0
	a := randMat(rand.New(rand.NewSource(75)), 30, 20)
	before := EigensolverFallbacks()
	got := SingularValues(a, nil)
	if n := EigensolverFallbacks() - before; n != 1 {
		t.Errorf("fallback counter moved by %d, want 1", n)
	}
	if want := SVDJacobi(a).S; !floatsBitEqual(got, want) {
		t.Errorf("fallback spectrum %v, Jacobi %v", got, want)
	}
}

// FuzzSingularValues fuzzes matrix shape and content, asserting the spectral
// path agrees with the Jacobi oracle and never emits NaN or negatives.
func FuzzSingularValues(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7), false)
	f.Add(int64(2), uint8(12), uint8(3), true)
	f.Add(int64(3), uint8(1), uint8(1), false)
	f.Add(int64(4), uint8(40), uint8(25), true)
	f.Fuzz(func(t *testing.T, seed int64, rdim, cdim uint8, rankDeficient bool) {
		r := 1 + int(rdim)%48
		c := 1 + int(cdim)%48
		rng := rand.New(rand.NewSource(seed))
		a := matrix.New(r, c)
		for i := range a.RawData() {
			a.RawData()[i] = 2*rng.Float64() - 1
		}
		if rankDeficient && r > 1 {
			// Make row r-1 a multiple of row 0.
			f := rng.Float64() * 2
			for j := 0; j < c; j++ {
				a.Set(r-1, j, f*a.At(0, j))
			}
		}
		got := SingularValues(a, nil)
		want := SVDJacobi(a).S
		for i := range got {
			if math.IsNaN(got[i]) || got[i] < 0 {
				t.Fatalf("σ%d = %g", i, got[i])
			}
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("σ%d = %.15g, oracle %.15g", i, got[i], want[i])
			}
		}
	})
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

// dotGram is the bit-exact Gram oracle: entry (i, j) of the min-dimension
// Gram matrix is one dot product over the long side, summed in ascending
// order from zero.
func dotGram(a *matrix.Dense) *matrix.Dense {
	m, n := a.Dims()
	k, l := m, n
	at := a.At
	if n <= m {
		k, l = n, m
		at = func(i, r int) float64 { return a.At(r, i) }
	}
	g := matrix.New(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			s := 0.0
			for r := 0; r < l; r++ {
				s += at(i, r) * at(j, r)
			}
			g.Set(i, j, s)
		}
	}
	return g
}

// tred2ColumnWalk is the textbook values-only tred2 that tridiagonalize
// replaced: it forms each element of G·u by a walk along row j and then down
// column j of the lower triangle. It is the bit-exact oracle for the
// row-wise pass, which must sum every element's terms in this order.
func tred2ColumnWalk(g *matrix.Dense, d, e []float64) {
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
				f = 0.0
				for j := 0; j <= l; j++ {
					s := 0.0
					for k := 0; k <= j; k++ {
						s += w[j*n+k] * row[k]
					}
					for k := j + 1; k <= l; k++ {
						s += w[k*n+j] * row[k]
					}
					e[j] = s / h
					f += e[j] * row[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = row[j]
					s := e[j] - hh*f
					e[j] = s
					wj := w[j*n : j*n+j+1]
					for k := range wj {
						wj[k] -= f*e[k] + s*row[k]
					}
				}
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

// tridiagMatches runs tridiagonalize and the column-walk oracle on copies of
// g and reports whether d and e agree bit for bit.
func tridiagMatches(g *matrix.Dense) bool {
	n := g.Rows()
	d, e := make([]float64, n), make([]float64, n)
	dWant, eWant := make([]float64, n), make([]float64, n)
	tridiagonalize(g.Clone(), d, e, make([]float64, n), make([]float64, n))
	tred2ColumnWalk(g.Clone(), dWant, eWant)
	return floatsBitEqual(d, dWant) && floatsBitEqual(e, eWant)
}

// forEachKernelPath runs f as one subtest on the AVX2 kernels (skipped on a
// CPU without them) and one on the scalar fallback.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Run("avx2", func(t *testing.T) {
		defer matrix.UseVectorKernels(true)()
		if !matrix.VectorKernels() {
			t.Skip("CPU has no AVX2")
		}
		f(t)
	})
	t.Run("scalar", func(t *testing.T) {
		defer matrix.UseVectorKernels(false)()
		f(t)
	})
}

// The Householder pass must produce the exact d/e recurrence of the column
// walk, on Gram matrices and on symmetric matrices with zero rows (the
// scale == 0 branch) alike, on either kernel path.
func TestTridiagonalizeBitIdenticalToColumnWalk(t *testing.T) {
	forEachKernelPath(t, testTridiagonalizeBitIdenticalToColumnWalk)
}

func testTridiagonalizeBitIdenticalToColumnWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	// Sizes on and off the 4-row groups of the vector kernel: above 8, every
	// n mod 4 occurs.
	for _, n := range []int{1, 2, 3, 5, 9, 10, 11, 12, 64, 67, 250} {
		a := randMat(rng, n+7, n)
		if !tridiagMatches(matrix.AtAInto(matrix.New(n, n), a)) {
			t.Errorf("n=%d: tridiagonalize differs from the column walk", n)
		}
	}
	// A zero row and column take the scale == 0 branch; at n = 37 and 130 the
	// update pending from the step before crosses it on the vector block path.
	for _, c := range []struct{ n, zero int }{{6, 3}, {37, 17}, {130, 17}} {
		g := matrix.New(c.n, c.n)
		for i := 0; i < c.n; i++ {
			for j := 0; j <= i; j++ {
				if i != c.zero && j != c.zero {
					v := rng.NormFloat64()
					g.Set(i, j, v)
					g.Set(j, i, v)
				}
			}
		}
		if !tridiagMatches(g) {
			t.Errorf("n=%d, zero row %d: tridiagonalize differs from the column walk", c.n, c.zero)
		}
	}
}

// SingularValuesPar keeps its worker parameter only for old callers and
// ignores it: every workers value must give the serial pipeline's bits.
func TestSingularValuesParBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, dims := range [][2]int{{40, 60}, {100, 80}, {280, 300}, {300, 260}} {
		a := randMat(rng, dims[0], dims[1])
		want := AppendSingularValues(nil, a, NewWorkspace())
		for _, w := range []int{1, 2, 4, 8} {
			got := SingularValuesPar(a, NewWorkspace(), w)
			if !floatsBitEqual(got, want) {
				t.Errorf("%v workers=%d: spectrum differs from AppendSingularValues", dims, w)
			}
		}
	}
}

// Pounding test for the race detector: concurrent spectral solves, each
// with its own workspace or none (pooled workspaces and panel scratch), over
// one shared input.
func TestSingularValuesParConcurrentCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	rng := rand.New(rand.NewSource(83))
	a := randMat(rng, 280, 260)
	want := AppendSingularValues(nil, a, NewWorkspace())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ws *Workspace
			if g%2 == 0 {
				ws = NewWorkspace()
			}
			for iter := 0; iter < 3; iter++ {
				if got := SingularValuesPar(a, ws, 4); !floatsBitEqual(got, want) {
					t.Error("concurrent SingularValuesPar deviated")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzSpectralKernels fuzzes shape and content — negative and zero cells
// included, edges on and off the 4×8 Gram tile and the 4-lane Householder
// width — and holds both O(k³) kernels to their bit-exact oracles on both
// kernel paths: the Gram product to the ascending dot product, and the
// Householder reduction of that Gram matrix to the column-walk tred2. The
// AVX2 and scalar paths must also agree with each other bit for bit.
func FuzzSpectralKernels(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7), uint8(0))
	f.Add(int64(2), uint8(40), uint8(3), uint8(3))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint8(39), uint8(25), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rdim, cdim, zeros uint8) {
		r := 1 + int(rdim)%40
		c := 1 + int(cdim)%40
		rng := rand.New(rand.NewSource(seed))
		a := matrix.New(r, c)
		for i := range a.RawData() {
			if rng.Intn(4) < int(zeros%4) {
				continue // zero cell
			}
			a.RawData()[i] = 2*rng.Float64() - 1
		}
		k := min(r, c)
		want := dotGram(a)
		var grams [2]*matrix.Dense
		var ds, es [2][]float64
		for path, vector := range []bool{true, false} {
			restore := matrix.UseVectorKernels(vector)
			g := matrix.GramInto(matrix.New(k, k), a)
			ds[path], es[path] = make([]float64, k), make([]float64, k)
			tridiagonalize(g.Clone(), ds[path], es[path], make([]float64, k), make([]float64, k))
			restore()
			if !floatsBitEqual(g.RawData(), want.RawData()) {
				t.Fatalf("%dx%d vector=%v: GramInto differs from the dot-product oracle", r, c, vector)
			}
			grams[path] = g
		}
		if !floatsBitEqual(grams[0].RawData(), grams[1].RawData()) {
			t.Fatalf("%dx%d: the AVX2 and scalar Gram products differ", r, c)
		}
		dWant, eWant := make([]float64, k), make([]float64, k)
		tred2ColumnWalk(grams[1].Clone(), dWant, eWant)
		for path := range ds {
			if !floatsBitEqual(ds[path], dWant) || !floatsBitEqual(es[path], eWant) {
				t.Fatalf("%dx%d %s path: tridiagonalize differs from the column walk", r, c, [2]string{"AVX2", "scalar"}[path])
			}
		}
	})
}
