package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroInitialized(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = (%d,%d), want (3,4)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewFromDataRowMajor(t *testing.T) {
	m := NewFromData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if got := m.At(0, 2); got != 3 {
		t.Errorf("At(0,2) = %g, want 3", got)
	}
	if got := m.At(1, 0); got != 4 {
		t.Errorf("At(1,0) = %g, want 4", got)
	}
}

func TestNewFromDataLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "NewFromData with wrong length")
	NewFromData(2, 2, []float64{1, 2, 3})
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer expectPanic(t, "FromRows ragged")
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsCopiesData(t *testing.T) {
	row := []float64{1, 2}
	m := FromRows([][]float64{row})
	row[0] = 99
	if m.At(0, 0) != 1 {
		t.Errorf("FromRows aliased caller data: At(0,0) = %g, want 1", m.At(0, 0))
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 7.5)
	if m.At(1, 0) != 7.5 {
		t.Errorf("At(1,0) = %g after Set, want 7.5", m.At(1, 0))
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "At out of range")
	New(2, 2).At(2, 0)
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("I(3)[%d,%d] = %g, want %g", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestDiag(t *testing.T) {
	m := Diag([]float64{2, 3})
	want := FromRows([][]float64{{2, 0}, {0, 3}})
	if !EqualTol(m, want, 0) {
		t.Errorf("Diag = \n%v want \n%v", m, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(1)), 4, 7)
	if !EqualTol(m.T().T(), m, 0) {
		t.Error("T(T(m)) != m")
	}
}

func TestTransposeEntries(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if r, c := mt.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims = (%d,%d), want (3,2)", r, c)
	}
	if mt.At(2, 1) != 6 {
		t.Errorf("T[2,1] = %g, want 6", mt.At(2, 1))
	}
}

func TestMulAgainstKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !EqualTol(got, want, 1e-15) {
		t.Errorf("Mul = \n%v want \n%v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(rng, 5, 3)
	if !EqualTol(Mul(Identity(5), m), m, 1e-14) {
		t.Error("I*m != m")
	}
	if !EqualTol(Mul(m, Identity(3)), m, 1e-14) {
		t.Error("m*I != m")
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Mul mismatched dims")
	Mul(New(2, 3), New(2, 3))
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := m.MulVec([]float64{1, 0, -1})
	want := []float64{-2, -2}
	if !VecEqualTol(got, want, 1e-15) {
		t.Errorf("MulVec = %v, want %v", got, want)
	}
}

func TestAddSubHadamard(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got, want := Add(a, b), FromRows([][]float64{{6, 8}, {10, 12}}); !EqualTol(got, want, 0) {
		t.Errorf("Add = \n%v want \n%v", got, want)
	}
	if got, want := Sub(b, a), Constant(2, 2, 4); !EqualTol(got, want, 0) {
		t.Errorf("Sub = \n%v want \n%v", got, want)
	}
	if got, want := Hadamard(a, b), FromRows([][]float64{{5, 12}, {21, 32}}); !EqualTol(got, want, 0) {
		t.Errorf("Hadamard = \n%v want \n%v", got, want)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMulDistributesOverAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		a := randomMatrix(rng, 4, 5)
		b := randomMatrix(rng, 5, 3)
		c := randomMatrix(rng, 5, 3)
		left := Mul(a, Add(b, c))
		right := Add(Mul(a, b), Mul(a, c))
		if !EqualTol(left, right, 1e-12) {
			t.Fatalf("trial %d: A(B+C) != AB+AC, max diff %g", trial, Sub(left, right).MaxAbs())
		}
	}
}

// Property: (AB)^T = B^T A^T.
func TestMulTransposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		a := randomMatrix(rng, 3, 6)
		b := randomMatrix(rng, 6, 4)
		if !EqualTol(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-12) {
			t.Fatalf("trial %d: (AB)^T != B^T A^T", trial)
		}
	}
}

func TestRowColSums(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if got := m.RowSum(0); got != 6 {
		t.Errorf("RowSum(0) = %g, want 6", got)
	}
	if got := m.ColSum(2); got != 9 {
		t.Errorf("ColSum(2) = %g, want 9", got)
	}
	if got := m.RowSums(); !VecEqualTol(got, []float64{6, 15}, 0) {
		t.Errorf("RowSums = %v, want [6 15]", got)
	}
	if got := m.ColSums(); !VecEqualTol(got, []float64{5, 7, 9}, 0) {
		t.Errorf("ColSums = %v, want [5 7 9]", got)
	}
	if got := m.Sum(); got != 21 {
		t.Errorf("Sum = %g, want 21", got)
	}
}

func TestScaleRowsCols(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.ScaleRows([]float64{2, 10})
	want := FromRows([][]float64{{2, 4}, {30, 40}})
	if !EqualTol(m, want, 0) {
		t.Fatalf("ScaleRows = \n%v want \n%v", m, want)
	}
	m.ScaleCols([]float64{1, 0.5})
	want = FromRows([][]float64{{2, 2}, {30, 20}})
	if !EqualTol(m, want, 0) {
		t.Fatalf("ScaleCols = \n%v want \n%v", m, want)
	}
}

// Property: ScaleRows(d) equals left-multiplication by Diag(d).
func TestScaleRowsMatchesDiagMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 4, 6)
	d := []float64{0.5, 2, -1, 3}
	scaled := m.Clone().ScaleRows(d)
	viaMul := Mul(Diag(d), m)
	if !EqualTol(scaled, viaMul, 1e-13) {
		t.Error("ScaleRows != Diag(d)*M")
	}
}

// Property: ScaleCols(d) equals right-multiplication by Diag(d).
func TestScaleColsMatchesDiagMul(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomMatrix(rng, 4, 3)
	d := []float64{0.5, 2, -1}
	scaled := m.Clone().ScaleCols(d)
	viaMul := Mul(m, Diag(d))
	if !EqualTol(scaled, viaMul, 1e-13) {
		t.Error("ScaleCols != M*Diag(d)")
	}
}

func TestPermuteRowsCols(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	pr := m.PermuteRows([]int{2, 0, 1})
	want := FromRows([][]float64{{5, 6}, {1, 2}, {3, 4}})
	if !EqualTol(pr, want, 0) {
		t.Errorf("PermuteRows = \n%v want \n%v", pr, want)
	}
	pc := m.PermuteCols([]int{1, 0})
	want = FromRows([][]float64{{2, 1}, {4, 3}, {6, 5}})
	if !EqualTol(pc, want, 0) {
		t.Errorf("PermuteCols = \n%v want \n%v", pc, want)
	}
}

func TestPermuteInvalidPanics(t *testing.T) {
	defer expectPanic(t, "invalid permutation")
	New(2, 2).PermuteRows([]int{0, 0})
}

func TestSubmatrix(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Submatrix([]int{0, 2}, []int{2, 0})
	want := FromRows([][]float64{{3, 1}, {9, 7}})
	if !EqualTol(s, want, 0) {
		t.Errorf("Submatrix = \n%v want \n%v", s, want)
	}
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{{3, -4}, {0, 0}})
	if got := m.NormFro(); math.Abs(got-5) > 1e-15 {
		t.Errorf("NormFro = %g, want 5", got)
	}
	if got := m.Norm1(); got != 4 {
		t.Errorf("Norm1 = %g, want 4", got)
	}
	if got := m.NormInf(); got != 7 {
		t.Errorf("NormInf = %g, want 7", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %g, want 4", got)
	}
}

func TestPredicates(t *testing.T) {
	pos := FromRows([][]float64{{1, 2}, {3, 4}})
	withZero := FromRows([][]float64{{1, 0}, {3, 4}})
	neg := FromRows([][]float64{{1, -2}, {3, 4}})
	if !pos.AllPositive() || withZero.AllPositive() || neg.AllPositive() {
		t.Error("AllPositive misclassified")
	}
	if !pos.NonNegative() || !withZero.NonNegative() || neg.NonNegative() {
		t.Error("NonNegative misclassified")
	}
	if got := withZero.CountZeros(); got != 1 {
		t.Errorf("CountZeros = %d, want 1", got)
	}
	nan := FromRows([][]float64{{math.NaN()}})
	if !nan.HasNaN() || pos.HasNaN() {
		t.Error("HasNaN misclassified")
	}
	if nan.NonNegative() {
		t.Error("NonNegative must reject NaN")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestCopyFrom(t *testing.T) {
	m := New(1, 2)
	m.CopyFrom(FromRows([][]float64{{7, 8}}))
	if m.At(0, 1) != 8 {
		t.Errorf("CopyFrom: At(0,1) = %g, want 8", m.At(0, 1))
	}
}

func TestRowColCopies(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("Row returned aliased storage")
	}
	c := m.Col(1)
	if !VecEqualTol(c, []float64{2, 4}, 0) {
		t.Errorf("Col(1) = %v, want [2 4]", c)
	}
}

func TestApply(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Apply(func(i, j int, v float64) float64 { return v * v })
	want := FromRows([][]float64{{1, 4}, {9, 16}})
	if !EqualTol(m, want, 0) {
		t.Errorf("Apply = \n%v want \n%v", m, want)
	}
}

func TestEqualTolShapeMismatch(t *testing.T) {
	if EqualTol(New(2, 2), New(2, 3), 1) {
		t.Error("EqualTol must reject shape mismatch")
	}
}

func TestStringRenders(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if s == "" {
		t.Error("String returned empty output")
	}
}

func TestRowsColsAccessors(t *testing.T) {
	m := New(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 {
		t.Errorf("Rows/Cols = %d/%d", m.Rows(), m.Cols())
	}
}

func TestScaleAndScaled(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	s := m.Scaled(3)
	if !EqualTol(s, FromRows([][]float64{{3, 6}}), 0) {
		t.Errorf("Scaled = \n%v", s)
	}
	if m.At(0, 0) != 1 {
		t.Error("Scaled mutated receiver")
	}
	m.Scale(2)
	if !EqualTol(m, FromRows([][]float64{{2, 4}}), 0) {
		t.Errorf("Scale = \n%v", m)
	}
}

func TestMinMax(t *testing.T) {
	m := FromRows([][]float64{{3, -1}, {7, 2}})
	if m.Min() != -1 {
		t.Errorf("Min = %g", m.Min())
	}
	if m.Max() != 7 {
		t.Errorf("Max = %g", m.Max())
	}
}

func TestMinEmptyPanics(t *testing.T) {
	defer expectPanic(t, "Min of empty matrix")
	New(0, 0).Min()
}

func TestNegativeDimsPanics(t *testing.T) {
	defer expectPanic(t, "negative dims")
	New(-1, 2)
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer expectPanic(t, "CopyFrom mismatch")
	New(2, 2).CopyFrom(New(2, 3))
}

func TestSubmatrixOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "Submatrix row out of range")
	New(2, 2).Submatrix([]int{5}, []int{0})
}

func TestVecEqualTolLengthMismatch(t *testing.T) {
	if VecEqualTol([]float64{1}, []float64{1, 2}, 1) {
		t.Error("length mismatch must be unequal")
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := range m.RawData() {
		m.RawData()[i] = rng.NormFloat64()
	}
	return m
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Errorf("%s did not panic", what)
	}
}

// quick-check: Frobenius norm is invariant under transposition.
func TestQuickNormFroTransposeInvariant(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		n := len(vals)
		cols := 1
		for cols*cols < n {
			cols++
		}
		rows := n / cols
		if rows == 0 {
			return true
		}
		m := NewFromData(rows, cols, sanitize(vals[:rows*cols]))
		return math.Abs(m.NormFro()-m.T().NormFro()) <= 1e-9*(1+m.NormFro())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// quick-check: Sum equals the sum of row sums and the sum of column sums.
func TestQuickSumConsistency(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) < 4 {
			return true
		}
		vals = sanitize(vals)
		m := NewFromData(2, len(vals)/2, vals[:2*(len(vals)/2)])
		tot := m.Sum()
		return math.Abs(VecSum(m.RowSums())-tot) <= 1e-9*(1+math.Abs(tot)) &&
			math.Abs(VecSum(m.ColSums())-tot) <= 1e-9*(1+math.Abs(tot))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sanitize(vals []float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		// Clamp to a moderate range so products cannot overflow.
		out[i] = math.Mod(v, 1e6)
	}
	return out
}

// The fused Sinkhorn kernels must agree with the separate scale + reduce
// operations they replace.
func TestFusedScaleSumKernels(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	})
	colF := []float64{2, 0.5, 1, 3}
	rowF := []float64{0.1, 10, 1}

	want := a.Clone().ScaleCols(colF)
	got := a.Clone()
	rs := make([]float64, 3)
	got.ScaleColsRowSums(colF, rs)
	if !EqualTol(want, got, 0) {
		t.Fatalf("ScaleColsRowSums matrix mismatch:\n%v\n%v", want, got)
	}
	if !VecEqualTol(rs, want.RowSums(), 1e-12) {
		t.Fatalf("fused row sums %v, want %v", rs, want.RowSums())
	}

	want2 := got.Clone().ScaleRows(rowF)
	cs := make([]float64, 4)
	got.ScaleRowsColSums(rowF, cs)
	if !EqualTol(want2, got, 0) {
		t.Fatalf("ScaleRowsColSums matrix mismatch:\n%v\n%v", want2, got)
	}
	if !VecEqualTol(cs, want2.ColSums(), 1e-12) {
		t.Fatalf("fused col sums %v, want %v", cs, want2.ColSums())
	}
}

func TestSumsInto(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	rs := make([]float64, 3)
	cs := []float64{99, 99} // must be overwritten, not accumulated into
	a.RowSumsInto(rs)
	a.ColSumsInto(cs)
	if !VecEqualTol(rs, a.RowSums(), 0) || !VecEqualTol(cs, a.ColSums(), 0) {
		t.Fatalf("RowSumsInto %v / ColSumsInto %v disagree with RowSums %v / ColSums %v",
			rs, cs, a.RowSums(), a.ColSums())
	}
}

func TestPermuteColsInPlace(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	perm := []int{2, 0, 1}
	want := a.PermuteCols(perm)
	a.PermuteColsInPlace(perm)
	if !EqualTol(want, a, 0) {
		t.Fatalf("in-place permutation mismatch:\n%v\n%v", want, a)
	}
}

// The range kernels are the tiled Sinkhorn loop's building blocks: applied
// tile by tile in column order with the accumulator resumed between tiles,
// they must reproduce the whole-row kernels bit for bit.
func TestScaleRangeKernelsMatchWholeRow(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	const r, c = 23, 37
	factorsC := make([]float64, c)
	factorsR := make([]float64, r)
	for i := range factorsC {
		factorsC[i] = 0.5 + rng.Float64()
	}
	for i := range factorsR {
		factorsR[i] = 0.5 + rng.Float64()
	}

	orig := randDense(rng, r, c)
	whole := orig.Clone()
	wantSums := make([]float64, r)
	whole.ScaleColsRowSums(factorsC, wantSums)

	ranged := orig.Clone()
	gotSums := make([]float64, r)
	// Uneven column splits; each row's partial sum resumes across them.
	for _, split := range [][2]int{{0, 5}, {5, 6}, {6, 20}, {20, 37}} {
		ranged.ScaleColsRowSumsRange(factorsC, gotSums, 0, r, split[0], split[1])
	}
	if !bitEqual(ranged, whole) {
		t.Error("ScaleColsRowSumsRange tiles differ from the whole-row kernel")
	}
	for i := range wantSums {
		if gotSums[i] != wantSums[i] {
			t.Fatalf("row sum %d: ranged %g != whole %g", i, gotSums[i], wantSums[i])
		}
	}

	whole2 := orig.Clone()
	wantCols := make([]float64, c)
	whole2.ScaleRowsColSums(factorsR, wantCols)
	ranged2 := orig.Clone()
	gotCols := make([]float64, c)
	for _, split := range [][2]int{{0, 9}, {9, 10}, {10, 23}} {
		ranged2.ScaleRowsColSumsRange(factorsR, gotCols, split[0], split[1], 0, c)
	}
	if !bitEqual(ranged2, whole2) {
		t.Error("ScaleRowsColSumsRange tiles differ from the whole-row kernel")
	}
	for j := range wantCols {
		if gotCols[j] != wantCols[j] {
			t.Fatalf("col sum %d: ranged %g != whole %g", j, gotCols[j], wantCols[j])
		}
	}
}

// Range bounds are programming errors, not data errors; they must fail fast.
func TestScaleRangePanicsOnBadBounds(t *testing.T) {
	m := New(4, 4)
	f := make([]float64, 4)
	s := make([]float64, 4)
	for _, bad := range [][4]int{{-1, 4, 0, 4}, {0, 5, 0, 4}, {2, 1, 0, 4}, {0, 4, 3, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range %v accepted", bad)
				}
			}()
			m.ScaleColsRowSumsRange(f, s, bad[0], bad[1], bad[2], bad[3])
		}()
	}
}
