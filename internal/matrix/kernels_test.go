package matrix

import (
	"math/rand"
	"testing"
)

// sinkhornPassesBothPaths runs one column pass and one row pass of a
// Sinkhorn round on copies of a, once on the AVX2 path and once on the
// scalar path, and fails unless the two leave the same matrix and the same
// sums, bit for bit. Without AVX2 both runs take the scalar path.
func sinkhornPassesBothPaths(t *testing.T, rng *rand.Rand, a *Dense) {
	t.Helper()
	r, c := a.Dims()
	colF, rowF := make([]float64, c), make([]float64, r)
	for j := range colF {
		colF[j] = 0.25 + 4*rng.Float64()
	}
	for i := range rowF {
		rowF[i] = 0.25 + 4*rng.Float64()
	}
	var ms [2]*Dense
	var rss, css [2][]float64
	for path, vector := range []bool{true, false} {
		restore := UseVectorKernels(vector)
		w := a.Clone()
		rss[path], css[path] = make([]float64, r), make([]float64, c)
		w.ScaleColsRowSums(colF, rss[path])
		w.ScaleRowsColSums(rowF, css[path])
		restore()
		ms[path] = w
	}
	if !bitEqual(ms[0], ms[1]) {
		t.Fatalf("%dx%d: the AVX2 and scalar passes leave different matrices", r, c)
	}
	for i := range rss[0] {
		if rss[0][i] != rss[1][i] {
			t.Fatalf("%dx%d: row sum %d is %v on the AVX2 path, %v on the scalar path", r, c, i, rss[0][i], rss[1][i])
		}
	}
	for j := range css[0] {
		if css[0][j] != css[1][j] {
			t.Fatalf("%dx%d: column sum %d is %v on the AVX2 path, %v on the scalar path", r, c, j, css[0][j], css[1][j])
		}
	}
}

// randSinkhornInput fills an r×c matrix with values spread over several
// decades, so a changed rounding or summation order shows in the low bits;
// a share of the cells (zeros of 4) is left zero.
func randSinkhornInput(rng *rand.Rand, r, c, zeros int) *Dense {
	a := New(r, c)
	for i := range a.data {
		if rng.Intn(4) < zeros {
			continue
		}
		a.data[i] = rng.ExpFloat64() * float64(int(1)<<rng.Intn(20))
	}
	return a
}

// Every row and column count from 1 to 21 puts rows on and off the 4-row
// groups of the column pass and columns on and off its 4-wide quads and the
// row pass's 16-wide blocks.
func TestSinkhornPassesBitIdenticalAcrossPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for r := 1; r <= 21; r++ {
		for c := 1; c <= 21; c++ {
			sinkhornPassesBothPaths(t, rng, randSinkhornInput(rng, r, c, (r+c)%4))
		}
	}
	sinkhornPassesBothPaths(t, rng, randSinkhornInput(rng, 512, 256, 0))
	sinkhornPassesBothPaths(t, rng, randSinkhornInput(rng, 67, 131, 1))
}

// FuzzSinkhornPasses fuzzes shape and content, tails and zero cells
// included, and holds the AVX2 Sinkhorn passes to the scalar ones bit for
// bit.
func FuzzSinkhornPasses(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7), uint8(0))
	f.Add(int64(2), uint8(40), uint8(3), uint8(3))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint8(39), uint8(33), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rdim, cdim, zeros uint8) {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + int(rdim)%64
		c := 1 + int(cdim)%64
		sinkhornPassesBothPaths(t, rng, randSinkhornInput(rng, r, c, int(zeros%4)))
	})
}

// symRank2MulVecRef is SymRank2MulVec as its two textbook steps: the rank-2
// update of the lower triangle, then each p[j] summed by a walk along row j
// and down column j.
func symRank2MulVecRef(w []float64, stride int, u, q, v, p []float64) {
	n := len(v)
	for j := 0; j < n; j++ {
		for k := 0; k <= j; k++ {
			w[j*stride+k] -= u[j]*q[k] + q[j]*u[k]
		}
	}
	for j := 0; j < n; j++ {
		s := 0.0
		for k := 0; k <= j; k++ {
			s += w[j*stride+k] * v[k]
		}
		for k := j + 1; k < n; k++ {
			s += w[k*stride+j] * v[k]
		}
		p[j] = s
	}
}

// Both kernel paths of the fused Householder pass give the two-step
// reference's bits on every order from 0 to 21 and at 37 and 64 (groups of
// four rows and their tails), leave the upper triangle and the row padding
// alone, and overwrite p rather than add to it.
func TestSymRank2MulVecMatchesTwoSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sizes := []int{37, 64}
	for n := 0; n <= 21; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		stride := n + 3
		w := make([]float64, n*stride)
		for i := range w {
			w[i] = rng.NormFloat64() * float64(int(1)<<rng.Intn(12))
		}
		vec := func() []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			return x
		}
		u, q, v := vec(), vec(), vec()
		want, wantP := append([]float64(nil), w...), make([]float64, n)
		symRank2MulVecRef(want, stride, u, q, v, wantP)
		for _, vector := range []bool{true, false} {
			restore := UseVectorKernels(vector)
			got, p := append([]float64(nil), w...), vec()
			SymRank2MulVec(got, stride, u, q, v, p)
			restore()
			if !vecBitEqual(got, want) || !vecBitEqual(p, wantP) {
				t.Fatalf("n=%d vector=%v: SymRank2MulVec differs from the two-step reference", n, vector)
			}
		}
	}
}
