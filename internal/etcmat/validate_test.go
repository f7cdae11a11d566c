package etcmat

import (
	"math"
	"testing"

	"repro/internal/matrix"
)

// The one-sweep validator must report exactly what three separate scans
// reported: the first bad cell in row-major order wins over any zero line,
// then the first all-zero row, then the first all-zero column. The messages
// are pinned verbatim.
func TestValidateECSMessages(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	wide := make([][]float64, 2)
	for i := range wide {
		wide[i] = make([]float64, 700)
		for j := range wide[i] {
			if j != 613 {
				wide[i][j] = 1
			}
		}
	}
	for _, tc := range []struct {
		name string
		rows [][]float64
		want string
	}{
		{"valid", [][]float64{{1, 0}, {0, 2}}, ""},
		{"bad cell before zero row", [][]float64{{0, 0}, {1, nan}}, "etcmat: invalid environment: ECS(1,1) = NaN must be finite and nonnegative"},
		{"first bad cell in row order", [][]float64{{1, 2, -1}, {-3, 1, 1}}, "etcmat: invalid environment: ECS(0,2) = -1 must be finite and nonnegative"},
		{"+Inf", [][]float64{{1, 1}, {inf, 1}}, "etcmat: invalid environment: ECS(1,0) = +Inf must be finite and nonnegative"},
		{"-Inf", [][]float64{{math.Inf(-1), 1}}, "etcmat: invalid environment: ECS(0,0) = -Inf must be finite and nonnegative"},
		{"bad cell after zero column", [][]float64{{0, 1}, {0, 1}, {1, -2}}, "etcmat: invalid environment: ECS(2,1) = -2 must be finite and nonnegative"},
		{"first zero row", [][]float64{{1, 0, 1}, {0, 0, 0}, {1, 0, 1}, {0, 0, 0}}, "etcmat: invalid environment: task type 1 cannot run on any machine (all-zero ECS row)"},
		{"negative zeros are zero", [][]float64{{1, 1}, {negZero, negZero}}, "etcmat: invalid environment: task type 1 cannot run on any machine (all-zero ECS row)"},
		{"first zero column", [][]float64{{1, 0, 1, 0}, {1, 0, 1, 0}}, "etcmat: invalid environment: machine 1 cannot run any task type (all-zero ECS column)"},
		{"zero column past 512", wide, "etcmat: invalid environment: machine 613 cannot run any task type (all-zero ECS column)"},
		{"subnormal is positive", [][]float64{{5e-324, 0}, {0, 1}}, ""},
	} {
		_, err := NewFromECS(matrix.FromRows(tc.rows))
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
	if _, err := NewFromECS(matrix.New(0, 3)); err == nil || err.Error() != "etcmat: invalid environment: empty matrix" {
		t.Errorf("empty: got %v", err)
	}
}
