package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/spec"
)

// Ex9Weights demonstrates the paper's weighting factors (Sec. II-C): w_t(i)
// can encode "the number of times that a task type is executed" and w_m(j)
// machine attributes such as a security level. On the CINT environment we
// compare three weightings:
//
//   - uniform (the baseline of Fig. 6);
//   - a frequency profile where short interactive task types dominate the
//     mix (heavier weight on the three fastest task types);
//   - a restricted-machines profile that down-weights two machines (e.g.
//     lower security clearance) without removing them.
//
// The measures move exactly as Eqs. 4 and 6 dictate: task weighting reshapes
// TDH (difficulty is mix-dependent), machine weighting reshapes MPH, and TMA
// responds only insofar as the weighted matrix's affinity structure changes.
// Each weighting is standardized cold: on a matrix this small a seed from
// the uniform baseline saves no rounds and costs time (DESIGN.md §12).
func Ex9Weights() ([]*Table, error) {
	base := spec.CINT2006Rate()
	t := &Table{
		ID:    "EX9",
		Title: "Weighting factors (Eqs. 4/6) on SPEC CINT2006Rate",
		Notes: []string{
			"task-frequency weights: 5x on the three least difficult task types",
			"machine weights: 0.25x on machines m1 and m2",
		},
		Header: []string{"weighting", "MPH", "TDH", "TMA"},
	}

	addRow := func(name string, env *etcmat.Env) error {
		p := core.Characterize(env)
		if p.TMAErr != nil {
			return fmt.Errorf("%s: %w", name, p.TMAErr)
		}
		t.Rows = append(t.Rows, []string{name, f4(p.MPH), f4(p.TDH), f4(p.TMA)})
		return nil
	}

	if err := addRow("uniform (Fig. 6 baseline)", base); err != nil {
		return nil, err
	}

	// Frequency profile: 5x weight on the three easiest task types.
	td := core.TaskDifficulties(base)
	taskW := make([]float64, base.Tasks())
	for i := range taskW {
		taskW[i] = 1
	}
	for k := 0; k < 3; k++ {
		// The easiest task types have the largest difficulty row sums.
		maxI := 0
		for i, v := range td {
			if v > td[maxI] {
				maxI = i
			}
		}
		taskW[maxI] = 5
		td[maxI] = -1
	}
	freq, err := base.WithWeights(taskW, nil)
	if err != nil {
		return nil, err
	}
	if err := addRow("task frequency 5x on easy types", freq); err != nil {
		return nil, err
	}

	machW := []float64{0.25, 0.25, 1, 1, 1}
	restricted, err := base.WithWeights(nil, machW)
	if err != nil {
		return nil, err
	}
	if err := addRow("machines m1,m2 down-weighted 4x", restricted); err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}
