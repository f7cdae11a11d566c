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
