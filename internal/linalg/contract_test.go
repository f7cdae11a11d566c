package linalg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sinkhorn"
)

// spectrumContractC is the constant of the spectrum accuracy contract
// (DESIGN.md §9): on a standard-form matrix, where σ₁ = 1, the values-only
// path returns every eigenvalue σᵢ² of the Gram matrix within
// spectrumContractC·k·ε·σ₁² of the Jacobi SVD's, k = min(T, M).
const spectrumContractC = 4

// contractFamily is one input family of the contract test: an ECS matrix
// that the test takes to the paper's standard form.
type contractFamily struct {
	name string
	ecs  func(rng *rand.Rand) *matrix.Dense
}

// ecsOf fills a t×m matrix cell by cell.
func ecsOf(t, m int, cell func(i, j int) float64) *matrix.Dense {
	a := matrix.New(t, m)
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			a.Set(i, j, cell(i, j))
		}
	}
	return a
}

// nearRank1 is u·vᵀ with every cell perturbed by a relative noise in
// [−noise, noise): TMA near 0, every σ past σ₁ of the order of noise.
func nearRank1(t, m int, noise float64) func(rng *rand.Rand) *matrix.Dense {
	return func(rng *rand.Rand) *matrix.Dense {
		u, v := make([]float64, t), make([]float64, m)
		for i := range u {
			u[i] = 0.5 + 1.5*rng.Float64()
		}
		for j := range v {
			v[j] = 0.5 + 1.5*rng.Float64()
		}
		return ecsOf(t, m, func(i, j int) float64 { return u[i] * v[j] * (1 + noise*(2*rng.Float64()-1)) })
	}
}

var contractFamilies = []contractFamily{
	{"range-based 512x256", func(rng *rand.Rand) *matrix.Dense {
		// ETC(i, j) = τᵢ·U[1, 10) with τᵢ ~ U[1, 100); ECS is its reciprocal.
		tau := make([]float64, 512)
		for i := range tau {
			tau[i] = 1 + 99*rng.Float64()
		}
		return ecsOf(512, 256, func(i, j int) float64 { return 1 / (tau[i] * (1 + 9*rng.Float64())) })
	}},
	{"near-rank-1 noise 1e-3 200x100", nearRank1(200, 100, 1e-3)},
	{"near-rank-1 noise 1e-6 200x100", nearRank1(200, 100, 1e-6)},
	{"permutation-like 240x120", func(rng *rand.Rand) *matrix.Dense {
		// Task i runs fast only on machine i mod 120: TMA near 1.
		return ecsOf(240, 120, func(i, j int) float64 {
			if j == i%120 {
				return 1 + rng.Float64()
			}
			return 1e-3 * (1 + rng.Float64())
		})
	}},
	{"two-block 120x80", func(rng *rand.Rand) *matrix.Dense {
		// Two 60×40 diagonal blocks, off-block cells scaled by 1e-2: σ₂
		// near 1, nearly decomposable.
		return ecsOf(120, 80, func(i, j int) float64 {
			v := 1 + rng.Float64()
			if (i < 60) != (j < 40) {
				v *= 1e-2
			}
			return v
		})
	}},
}

// TestSpectrumAccuracyContract holds the values-only path to the contract on
// the standard form of every family, on both kernel paths.
func TestSpectrumAccuracyContract(t *testing.T) {
	for fi, fam := range contractFamilies {
		t.Run(fam.name, func(t *testing.T) {
			res, err := sinkhorn.Standardize(fam.ecs(rand.New(rand.NewSource(int64(90 + fi)))))
			if err != nil {
				t.Fatal(err)
			}
			a := res.Scaled
			want := SVDJacobi(a).S
			k := len(want)
			if math.Abs(want[0]-1) > 1e-9 {
				t.Fatalf("standard form has σ₁ = %.15g, want 1", want[0])
			}
			unit := float64(k) * macheps * want[0] * want[0]
			forEachKernelPath(t, func(t *testing.T) {
				e := 0.0
				for i, v := range SingularValues(a, nil) {
					if math.IsNaN(v) {
						t.Fatalf("σ%d is NaN", i)
					}
					e = math.Max(e, math.Abs(v*v-want[i]*want[i]))
				}
				if e > spectrumContractC*unit {
					t.Errorf("max |σ² − σ²(Jacobi)| = %.3g = %.2f·k·ε, contract %d·k·ε", e, e/unit, spectrumContractC)
				}
				t.Logf("max |σ² − σ²(Jacobi)| = %.2f·k·ε", e/unit)
			})
		})
	}
}

// FuzzTridiagonalEigen holds the QL stage alone to the contract: the
// eigenvalues of a random symmetric tridiagonal T agree with SymEigJacobi on
// T to spectrumContractC·n·ε·‖T‖₂ and are never NaN. kind picks the family:
// uniform entries, uniform with exact zero off-diagonals (split blocks),
// graded entries 10^u with u uniform over [−12, 12] and random signs, or
// copies of Wilkinson's W₂₁⁺ glued by off-diagonals of 10^u, u in [−14, −2].
func FuzzTridiagonalEigen(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(2))
	f.Add(int64(3), uint8(40), uint8(1))
	f.Add(int64(4), uint8(63), uint8(2))
	f.Add(int64(5), uint8(62), uint8(3))
	f.Add(int64(6), uint8(20), uint8(3))
	// A graded 44×44 input whose sweep meets an exact zero pivot: without
	// the g == 0 → g = b guard its eigenvalues come back wrong.
	f.Add(int64(321), uint8(107), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, size, kind uint8) {
		n := 1 + int(size)%64
		rng := rand.New(rand.NewSource(seed))
		d, e := make([]float64, n), make([]float64, n)
		for i := range d {
			switch kind % 4 {
			case 0, 1:
				d[i] = 2*rng.Float64() - 1
				e[i] = 2*rng.Float64() - 1
				if kind%4 == 1 && rng.Intn(3) == 0 {
					e[i] = 0
				}
			case 2:
				d[i] = math.Copysign(math.Pow(10, 24*rng.Float64()-12), rng.Float64()-0.5)
				e[i] = math.Copysign(math.Pow(10, 24*rng.Float64()-12), rng.Float64()-0.5)
			case 3:
				d[i] = math.Abs(float64(i%21 - 10))
				e[i] = 1
				if i%21 == 0 {
					e[i] = math.Pow(10, 12*rng.Float64()-14)
				}
			}
		}
		e[0] = 0
		tri := matrix.New(n, n)
		for i := range d {
			tri.Set(i, i, d[i])
			if i > 0 {
				tri.Set(i, i-1, e[i])
				tri.Set(i-1, i, e[i])
			}
		}
		want, _ := SymEigJacobi(tri)
		if !tqlRootFree(d, e) {
			t.Fatalf("n=%d kind=%d: QL did not converge within its budget", n, kind%4)
		}
		sortDescending(d)
		norm := math.Max(math.Abs(want[0]), math.Abs(want[n-1]))
		for i := range d {
			if math.IsNaN(d[i]) {
				t.Fatalf("n=%d kind=%d: λ%d is NaN", n, kind%4, i)
			}
			if err := math.Abs(d[i] - want[i]); err > spectrumContractC*float64(n)*macheps*norm {
				t.Fatalf("n=%d kind=%d: λ%d = %.17g, Jacobi %.17g (Δ = %.2f·n·ε·‖T‖)", n, kind%4, i, d[i], want[i], err/(float64(n)*macheps*norm))
			}
		}
	})
}
