package matrix

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// bitEqual reports whether two matrices are identical bit for bit — the
// contract of the Gram kernels, which promise the exact floats of a plain
// ascending-order dot product, not merely agreement within rounding.
func bitEqual(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// dotGram is the bit-exact oracle: entry (i, j) of AᵀA (ata) or AAᵀ is one
// dot product over the shared index, summed in ascending order from zero.
func dotGram(a *Dense, ata bool) *Dense {
	m, n := a.Dims()
	k, l := m, n
	at := func(i, r int) float64 { return a.At(i, r) }
	if ata {
		k, l = n, m
		at = func(i, r int) float64 { return a.At(r, i) }
	}
	g := New(k, k)
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

// naiveGram is the reference the blocked kernels are checked against.
func naiveGram(a *Dense, transposeFirst bool) *Dense {
	if transposeFirst {
		return Mul(a.T(), a)
	}
	return Mul(a, a.T())
}

func TestAtAIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// Edges straddle the 32-wide tile boundary on both sides.
	for _, dims := range [][2]int{{1, 1}, {3, 7}, {7, 3}, {20, 20}, {31, 33}, {33, 31}, {60, 40}, {40, 60}, {64, 65}} {
		a := randDense(rng, dims[0], dims[1])
		got := AtAInto(New(dims[1], dims[1]), a)
		want := naiveGram(a, true)
		if !EqualTol(got, want, 1e-12) {
			t.Errorf("%v: AtAInto deviates by %g", dims, Sub(got, want).MaxAbs())
		}
	}
}

func TestAAtIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][2]int{{1, 1}, {3, 7}, {7, 3}, {31, 33}, {33, 31}, {40, 60}, {65, 64}} {
		a := randDense(rng, dims[0], dims[1])
		got := AAtInto(New(dims[0], dims[0]), a)
		want := naiveGram(a, false)
		if !EqualTol(got, want, 1e-12) {
			t.Errorf("%v: AAtInto deviates by %g", dims, Sub(got, want).MaxAbs())
		}
	}
}

func TestGramIntoPicksMinDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tall := randDense(rng, 9, 4)
	if g := GramInto(New(4, 4), tall); g.Rows() != 4 {
		t.Fatalf("tall: got %dx%d Gram", g.Rows(), g.Cols())
	}
	wide := randDense(rng, 4, 9)
	g := GramInto(New(4, 4), wide)
	want := naiveGram(wide, false)
	if !EqualTol(g, want, 1e-12) {
		t.Errorf("wide: GramInto deviates by %g", Sub(g, want).MaxAbs())
	}
}

func TestGramIntoOverwritesStaleState(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := randDense(rng, 10, 6)
	dst := Constant(6, 6, 123.0)
	got := AtAInto(dst, a)
	if !EqualTol(got, naiveGram(a, true), 1e-12) {
		t.Error("AtAInto must fully overwrite a dirty destination")
	}
}

func TestGramSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := randDense(rng, 37, 33)
	g := AtAInto(New(33, 33), a)
	for i := 0; i < 33; i++ {
		for j := 0; j < i; j++ {
			if g.At(i, j) != g.At(j, i) {
				t.Fatalf("Gram not exactly symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestResetReusesCapacity(t *testing.T) {
	m := New(8, 8)
	data := m.RawData()
	data[0] = 7
	m.Reset(4, 4)
	if m.Rows() != 4 || m.Cols() != 4 {
		t.Fatalf("Reset dims = %dx%d, want 4x4", m.Rows(), m.Cols())
	}
	if m.At(0, 0) != 0 {
		t.Error("Reset must zero the reused storage")
	}
	if &m.RawData()[0] != &data[0] {
		t.Error("Reset within capacity must not reallocate")
	}
	m.Reset(10, 10)
	if m.Rows() != 10 || m.At(9, 9) != 0 {
		t.Error("Reset growth failed")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Reset(6, 6) }); allocs != 0 {
		t.Errorf("Reset within capacity allocates %g times per run", allocs)
	}
}

func TestGramFrobeniusTrace(t *testing.T) {
	// trace(AᵀA) = ‖A‖F² — a cheap independent invariant of the kernel.
	rng := rand.New(rand.NewSource(46))
	a := randDense(rng, 21, 34)
	g := AtAInto(New(34, 34), a)
	tr := 0.0
	for i := 0; i < 34; i++ {
		tr += g.At(i, i)
	}
	fro := a.NormFro()
	if math.Abs(tr-fro*fro) > 1e-10*(1+fro*fro) {
		t.Errorf("trace %g != ‖A‖F² %g", tr, fro*fro)
	}
}

// gramBitShapes have edges that are not multiples of the 4×2 tile, row
// counts that are not multiples of gramPanel, and single rows and columns.
var gramBitShapes = [][2]int{
	{1, 1}, {1, 9}, {9, 1}, {3, 7}, {7, 3}, {5, 5}, {31, 33}, {33, 31},
	{40, 61}, {130, 37}, {257, 13}, {300, 6},
}

// The register-blocked kernels keep each entry's summation order, so they
// must reproduce the ascending dot product exactly — including signed zeros
// and cancellations from negative and zero cells.
func TestGramBitIdenticalToDotProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	panel := New(0, 0)
	for _, dims := range gramBitShapes {
		a := randDense(rng, dims[0], dims[1])
		for i := range a.data {
			if rng.Intn(5) == 0 {
				a.data[i] = 0
			}
		}
		wantAtA, wantAAt := dotGram(a, true), dotGram(a, false)
		if got := AtAInto(Constant(dims[1], dims[1], 7), a); !bitEqual(got, wantAtA) {
			t.Errorf("%v: AtAInto differs from the dot-product oracle", dims)
		}
		if got := AAtInto(Constant(dims[0], dims[0], 7), a); !bitEqual(got, wantAAt) {
			t.Errorf("%v: AAtInto differs from the dot-product oracle", dims)
		}
		k := minDim(dims[0], dims[1])
		want := wantAtA
		if dims[1] > dims[0] {
			want = wantAAt
		}
		if got := GramInto(New(k, k), a); !bitEqual(got, want) {
			t.Errorf("%v: GramInto differs from the dot-product oracle", dims)
		}
		if got := GramIntoPanel(New(k, k), a, panel); !bitEqual(got, want) {
			t.Errorf("%v: GramIntoPanel differs from the dot-product oracle", dims)
		}
	}
}

// The panel height partitions the input rows but never reorders the terms
// of one entry (accumulators resume from dst between panels), so splitting
// AᵀA into panels of any height must give the bits of AtAInto.
func TestBlockedGramBitIdenticalAcrossBlockSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, dims := range [][2]int{{5, 5}, {33, 31}, {70, 50}, {600, 9}} {
		a := randDense(rng, dims[0], dims[1])
		m, n := dims[0], dims[1]
		want := AtAInto(New(n, n), a)
		for _, height := range []int{1, 2, 3, 8, 17, 32, 64, 128, 512} {
			got := New(n, n)
			for i0 := 0; i0 < m; i0 += height {
				p := minDim(height, m-i0)
				tp := make([]float64, n*p)
				for r := 0; r < p; r++ {
					for j := 0; j < n; j++ {
						tp[j*p+r] = a.At(i0+r, j)
					}
				}
				syrkUpper(got.data, n, tp, p)
			}
			mirrorUpper(got.data, n)
			if !bitEqual(got, want) {
				t.Errorf("%v panel height %d: AᵀA differs", dims, height)
			}
		}
	}
}

// Pounding test for the race detector: many goroutines borrow panel scratch
// from the shared pool at once over one read-only input, each with its own
// destination. `make race` is the gate.
func TestGramConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := randDense(rng, 190, 70)
	want := AtAInto(New(70, 70), a)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := New(70, 70)
			for iter := 0; iter < 5; iter++ {
				if got := AtAInto(dst, a); !bitEqual(got, want) {
					t.Error("concurrent AtAInto deviated")
					return
				}
			}
		}()
	}
	wg.Wait()
}
