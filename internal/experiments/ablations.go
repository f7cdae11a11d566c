package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/sinkhorn"
	"repro/internal/spec"
)

// Ex4Ablation validates the design choices DESIGN.md calls out, on the
// paper's own datasets:
//
//  1. the direct rectangular Eq. 9 iteration vs the Appendix A tiling
//     construction (both must reach the same standard form);
//  2. the Golub–Reinsch SVD vs the one-sided Jacobi SVD (both must report
//     the same singular values, hence the same TMA);
//  3. column-then-row normalization (the paper's Eq. 9 order) vs
//     row-then-column (the standard form must be identical, iteration counts
//     may differ by at most one);
//  4. the Sec. II-E geometric view: TMA vs the mean pairwise column angle.
func Ex4Ablation() ([]*Table, error) {
	t := &Table{
		ID:    "EX4",
		Title: "Ablations: implementation choices do not move the measures",
		Notes: []string{
			"agreement columns are max abs differences; 'iters' compares normalization rounds",
		},
		Header: []string{"dataset", "direct vs tiling", "GR vs Jacobi sv", "col-first vs row-first", "iters (c/r)", "TMA", "mean col angle (rad)"},
	}
	for _, c := range []struct {
		name string
		env  *etcmat.Env
	}{
		{"CINT", spec.CINT2006Rate()},
		{"CFP", spec.CFP2006Rate()},
		{"random 10x7", randomPositiveEnv(10, 7, 7)},
	} {
		w := c.env.WeightedECS()
		direct, err := sinkhorn.Standardize(w)
		if err != nil {
			return nil, err
		}
		rt, ct := sinkhorn.StandardTargets(w.Dims())
		tiled, err := sinkhorn.BalanceViaTiling(w, sinkhorn.Options{RowTarget: rt, ColTarget: ct})
		if err != nil {
			return nil, err
		}
		dTiling := matrix.Sub(direct.Scaled, tiled.Scaled).MaxAbs()

		gr, err := linalg.SVDGolubReinsch(direct.Scaled)
		if err != nil {
			return nil, err
		}
		jac := linalg.SVDJacobi(direct.Scaled)
		dSV := 0.0
		for i := range gr.S {
			if d := math.Abs(gr.S[i] - jac.S[i]); d > dSV {
				dSV = d
			}
		}

		rowFirst, err := rowFirstStandardize(w)
		if err != nil {
			return nil, err
		}
		dOrder := matrix.Sub(direct.Scaled, rowFirst.Scaled).MaxAbs()

		r, err := core.TMA(c.env)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%.2e", dTiling),
			fmt.Sprintf("%.2e", dSV),
			fmt.Sprintf("%.2e", dOrder),
			fmt.Sprintf("%d/%d", direct.Iterations, rowFirst.Iterations),
			f4(r.TMA),
			f4(core.MeanColumnAngle(c.env)),
		})
	}
	return []*Table{t}, nil
}

// rowFirstStandardize runs the Eq. 9 iteration with the opposite
// normalization order by transposing: balancing Aᵀ column-first is balancing
// A row-first; transposing back swaps the roles of D1/D2.
func rowFirstStandardize(a *matrix.Dense) (*sinkhorn.Result, error) {
	t, m := a.Dims()
	rt, ct := sinkhorn.StandardTargets(t, m)
	res, err := sinkhorn.Balance(context.Background(), a.T(), sinkhorn.Options{
		RowTarget: ct, ColTarget: rt, Tol: sinkhorn.DefaultTol,
	})
	if err != nil {
		return nil, err
	}
	res.Scaled = res.Scaled.T()
	res.D1, res.D2 = res.D2, res.D1
	return res, nil
}

// Ex5Search extends EX1 with the search-based mappers of Braun et al.: on
// the SPEC-derived environments, how much makespan do GA and SA recover over
// the best greedy/batch heuristic, and at what cost? The paper's companion
// comparison found GA the strongest mapper; the expected shape is a modest
// improvement over Min-Min that shrinks as affinity falls.
func Ex5Search() ([]*Table, error) {
	rng := rand.New(rand.NewSource(103))
	t := &Table{
		ID:    "EX5",
		Title: "Search mappers vs the greedy/batch suite (makespan relative to Min-Min)",
		Notes: []string{
			"workload: 6 instances of every task type, shuffled; GA 100x200, SA 20k steps",
		},
		Header: []string{"environment", "Min-Min", "Sufferage", "Duplex", "GA", "SA"},
	}
	envs := []struct {
		name string
		env  *etcmat.Env
	}{
		{"SPEC CINT (TMA 0.07)", spec.CINT2006Rate()},
		{"SPEC CFP  (TMA 0.11)", spec.CFP2006Rate()},
		{"high affinity (TMA 0.6)", highAffinityEnv()},
	}
	for _, c := range envs {
		in, err := sched.UniformWorkload(c.env, 6, rng)
		if err != nil {
			return nil, err
		}
		mm, err := (sched.MinMin{}).Map(in)
		if err != nil {
			return nil, err
		}
		row := []string{c.name, "1.00"}
		for _, h := range []sched.Heuristic{
			sched.Sufferage{}, sched.Duplex{},
			sched.GA{Population: 100, Generations: 200, Seed: 11},
			sched.SA{Iterations: 20000, Seed: 11},
		} {
			s, err := h.Map(in)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(s.Makespan/mm.Makespan))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

func highAffinityEnv() *etcmat.Env {
	g, err := gen.Targeted(gen.Target{
		Tasks: 12, Machines: 5, MPH: 0.8, TDH: 0.9, TMA: 0.6,
	}, rand.New(rand.NewSource(104)))
	if err != nil {
		panic(err)
	}
	return g.Env
}

func randomPositiveEnv(t, m int, seed int64) *etcmat.Env {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, t)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			rows[i][j] = 0.1 + rng.Float64()*10
		}
	}
	return etcmat.MustFromECS(rows)
}
