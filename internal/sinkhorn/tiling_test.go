package sinkhorn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

func TestGCD(t *testing.T) {
	cases := [][3]int{{12, 5, 1}, {12, 4, 4}, {17, 5, 1}, {6, 6, 6}, {2, 9, 1}}
	for _, c := range cases {
		if got := gcd(c[0], c[1]); got != c[2] {
			t.Errorf("gcd(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

// The Appendix A construction and the direct rectangular iteration must
// agree on the standard form (Theorem 1 uniqueness).
func TestTilingMatchesDirectStandardization(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, dims := range [][2]int{{12, 5}, {5, 12}, {4, 6}, {3, 3}, {2, 3}, {17, 5}} {
		a := randPositive(rng, dims[0], dims[1])
		direct, err := Standardize(a)
		if err != nil {
			t.Fatalf("%v direct: %v", dims, err)
		}
		rt, ct := StandardTargets(a.Dims())
		tiled, err := BalanceViaTiling(a, Options{RowTarget: rt, ColTarget: ct})
		if err != nil {
			t.Fatalf("%v tiled: %v", dims, err)
		}
		if !matrix.EqualTol(direct.Scaled, tiled.Scaled, 1e-6) {
			t.Errorf("%v: standard forms disagree by %g", dims,
				matrix.Sub(direct.Scaled, tiled.Scaled).MaxAbs())
		}
	}
}

// The tiled result must itself satisfy the standard-form sum targets.
func TestTilingHitsTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	a := randPositive(rng, 6, 4)
	rowT, colT := StandardTargets(a.Dims())
	res, err := BalanceViaTiling(a, Options{RowTarget: rowT, ColTarget: colT})
	if err != nil {
		t.Fatal(err)
	}
	rt, ct := StandardTargets(6, 4)
	checkSums(t, res.Scaled, rt, ct, 1e-6)
	// And equal D1·A·D2 reconstruction.
	recon := a.Clone().ScaleRows(res.D1).ScaleCols(res.D2)
	if !matrix.EqualTol(recon, res.Scaled, 1e-9) {
		t.Error("D1·A·D2 != Scaled for the tiled path")
	}
}

// D1/D2 from the two paths agree up to one reciprocal scalar pair
// (Theorem 1: unique up to scalar multiples).
func TestTilingScalingsUniqueUpToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := randPositive(rng, 5, 7)
	direct, err := Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	rt, ct := StandardTargets(a.Dims())
	tiled, err := BalanceViaTiling(a, Options{RowTarget: rt, ColTarget: ct})
	if err != nil {
		t.Fatal(err)
	}
	// ratio of D1 entries must be constant; same for D2 with the reciprocal.
	r0 := tiled.D1[0] / direct.D1[0]
	for i := range tiled.D1 {
		if math.Abs(tiled.D1[i]/direct.D1[i]-r0) > 1e-6*math.Abs(r0) {
			t.Fatalf("D1 ratios not constant: %v vs %v", tiled.D1, direct.D1)
		}
	}
	c0 := tiled.D2[0] / direct.D2[0]
	for j := range tiled.D2 {
		if math.Abs(tiled.D2[j]/direct.D2[j]-c0) > 1e-6*math.Abs(c0) {
			t.Fatalf("D2 ratios not constant: %v vs %v", tiled.D2, direct.D2)
		}
	}
	if math.Abs(r0*c0-1) > 1e-6 {
		t.Errorf("scalar pair not reciprocal: r=%g c=%g", r0, c0)
	}
}

func TestTilingRejectsNonPositive(t *testing.T) {
	a := matrix.FromRows([][]float64{{1, 0}, {1, 1}})
	rt, ct := StandardTargets(a.Dims())
	if _, err := BalanceViaTiling(a, Options{RowTarget: rt, ColTarget: ct}); err == nil {
		t.Error("matrix with zero accepted by tiling path (Appendix A needs positivity)")
	}
}

func TestTilingRejectsBadTargets(t *testing.T) {
	a := matrix.Constant(2, 3, 1)
	if _, err := BalanceViaTiling(a, Options{RowTarget: 1, ColTarget: 1}); err == nil {
		t.Error("inconsistent targets accepted")
	}
	if _, err := BalanceViaTiling(a, Options{RowTarget: -1, ColTarget: 1}); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := BalanceViaTiling(matrix.New(0, 0), Options{RowTarget: 1, ColTarget: 1}); err == nil {
		t.Error("empty matrix accepted")
	}
}

// The cache-oblivious pass kernels promise the exact bits of the whole-row
// kernels: the recursion visits every row's column tiles left to right and
// resumes the row accumulator between them, so the addition sequences match.
// The shapes force several levels of recursion (well past balanceTileCells)
// plus small cases that stay a single leaf.
func TestTiledPassesBitIdenticalToRowStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, dims := range [][2]int{{3, 5}, {257, 129}, {300, 400}, {451, 287}} {
		r, c := dims[0], dims[1]
		orig := randPositive(rng, r, c)
		colF := make([]float64, c)
		rowF := make([]float64, r)
		for j := range colF {
			colF[j] = 0.25 + rng.Float64()
		}
		for i := range rowF {
			rowF[i] = 0.25 + rng.Float64()
		}

		plain, tiled := orig.Clone(), orig.Clone()
		wantRS, gotRS := make([]float64, r), make([]float64, r)
		plain.ScaleColsRowSums(colF, wantRS)
		ScaleColsRowSumsTiled(tiled, colF, gotRS)
		if !matrix.EqualTol(plain, tiled, 0) {
			t.Errorf("%v: tiled col-scale pass differs from row-streaming", dims)
		}
		for i := range wantRS {
			if wantRS[i] != gotRS[i] {
				t.Fatalf("%v: row sum %d: tiled %g != plain %g", dims, i, gotRS[i], wantRS[i])
			}
		}

		wantCS, gotCS := make([]float64, c), make([]float64, c)
		plain.ScaleRowsColSums(rowF, wantCS)
		ScaleRowsColSumsTiled(tiled, rowF, gotCS)
		if !matrix.EqualTol(plain, tiled, 0) {
			t.Errorf("%v: tiled row-scale pass differs from row-streaming", dims)
		}
		for j := range wantCS {
			if wantCS[j] != gotCS[j] {
				t.Fatalf("%v: col sum %d: tiled %g != plain %g", dims, j, gotCS[j], wantCS[j])
			}
		}
	}
}

// Square inputs degenerate to the plain square balance (blockRows =
// blockCols = 1).
func TestTilingSquareDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a := randPositive(rng, 4, 4)
	direct, err := Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	rt, ct := StandardTargets(a.Dims())
	tiled, err := BalanceViaTiling(a, Options{RowTarget: rt, ColTarget: ct})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualTol(direct.Scaled, tiled.Scaled, 1e-6) {
		t.Error("square tiling disagrees with direct balance")
	}
}
