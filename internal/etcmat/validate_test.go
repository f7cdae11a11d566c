package etcmat

import (
	"encoding/binary"
	"math"
	"strings"
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

// The decode sweep over a matrix frame's words must report what
// NewFromETC reports, message for message: an ETC cell error wins over
// anything the reciprocals do, then the first reciprocal that overflows to
// +Inf, the first all-zero row and the first all-zero column. Accepted
// cells must be NewFromETC's bits and never −0, which lets WriteCells hash
// them in one Write.
func TestECSFromETCWordsMatchesNewFromETC(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	wide := make([][]float64, 2)
	for i := range wide {
		wide[i] = make([]float64, 130)
		for j := range wide[i] {
			wide[i][j] = float64(j + 1)
		}
	}
	wide[0][129], wide[1][129] = inf, inf
	for _, tc := range []struct {
		name string
		rows [][]float64
	}{
		{"valid", [][]float64{{1, inf}, {inf, 4}, {0.25, 3}}},
		{"NaN", [][]float64{{1, 2}, {nan, 1}}},
		{"zero", [][]float64{{1, 0}, {1, 1}}},
		{"negative zero", [][]float64{{1, 1}, {negZero, 1}}},
		{"-Inf", [][]float64{{math.Inf(-1), 1}}},
		{"negative after overflow", [][]float64{{5e-324, 1}, {1, -2}}},
		{"overflow", [][]float64{{1, 1e-309}, {1, 5e-324}}},
		{"overflow before zero row", [][]float64{{inf, inf}, {1, 1e-310}}},
		{"zero row", [][]float64{{1, 2}, {inf, inf}, {inf, inf}}},
		{"zero column", [][]float64{{inf, 1, inf}, {inf, 2, inf}}},
		{"zero column past 128", wide},
		{"largest time", [][]float64{{math.MaxFloat64, 1}}},
	} {
		etc := matrix.FromRows(tc.rows)
		t0, m := etc.Dims()
		words := make([]byte, 8*t0*m)
		for k, v := range etc.RawData() {
			binary.LittleEndian.PutUint64(words[8*k:], math.Float64bits(v))
		}
		dst := make([]float64, t0*m)
		etcErr, ecsErr := ECSFromETCWords(dst, words, t0, m)
		want, wantErr := NewFromETC(etc)
		got := ""
		if etcErr != nil {
			got = etcErr.Error()
		} else if ecsErr != nil {
			got = ecsErr.Error()
		}
		if wantErr != nil {
			if got != wantErr.Error() {
				t.Errorf("%s: got %q, want %q", tc.name, got, wantErr)
			}
			if etcErr != nil && !strings.Contains(wantErr.Error(), "ETC(") {
				t.Errorf("%s: an ECS check reported as an ETC cell error", tc.name)
			}
			continue
		}
		if got != "" {
			t.Errorf("%s: got %q, want success", tc.name, got)
			continue
		}
		for k, v := range dst {
			if math.Float64bits(v) != math.Float64bits(want.ecs.RawData()[k]) {
				t.Errorf("%s: cell %d is %v, want %v", tc.name, k, v, want.ecs.RawData()[k])
			}
		}
		env := NewFromCheckedECS(matrix.NewFromData(t0, m, dst))
		h := NewContentHasher()
		h.WriteCells(dst)
		h.WriteOnes(t0)
		h.WriteOnes(m)
		if h.Sum(t0, m) != want.ContentKey() || env.ContentKey() != want.ContentKey() {
			t.Errorf("%s: content key differs from NewFromETC's", tc.name)
		}
	}
}
