package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/etcmat"
	"repro/internal/matrix"
)

// This file implements the paper's what-if application (Sec. I: "what-if
// studies to identify the effect of adding/removing task types or machines
// from an HC system on its heterogeneity") as first-class library calls:
// leave-one-out deltas and entrywise sensitivities.

// Delta is the measure shift caused by one structural edit.
type Delta struct {
	// Kind is "task" or "machine"; Index and Name identify what was removed.
	Kind  string
	Index int
	Name  string
	// MPH, TDH, TMA are the edited environment's measures; DMPH, DTDH, DTMA
	// are the differences against the baseline. TMA deltas are NaN when
	// either side is not standardizable.
	MPH, TDH, TMA    float64
	DMPH, DTDH, DTMA float64
	// SinkhornIterations is the number of normalization rounds the edited
	// environment's standardization took. Each leave-one-out solve is seeded
	// with the baseline's scaling vectors (minus the removed index), so this
	// is typically below the baseline Profile's count — the observable proof
	// of the warm start.
	SinkhornIterations int
	// Err records edits that produce an invalid environment (for example,
	// removing the only machine a task type can run on).
	Err error
}

// LeaveOneOut computes the measure deltas from removing each machine and
// each task type in turn. Environments with a single task type or machine
// yield errors for the corresponding edits rather than panicking.
//
// Each edited environment differs from the baseline by one row or column,
// so its standardization is warm-started from the baseline's converged
// scaling vectors with the removed index dropped (etcmat.Env.
// StandardFormSeed / sinkhorn.WarmStart): the profiles are identical to the
// cold ones up to the convergence tolerance — the Sinkhorn limit is unique
// (Theorem 1) — but converge in fewer rounds. Every seed carries the
// baseline σ₂ as its over-relaxation hint, and that over-relaxation carries
// the gain: on a nearly decomposable environment (σ₂ near 1) the seeded
// sweep takes several times fewer rounds than a cold one, where the seed
// without it saves none (DESIGN.md §12). The hint's optimum is flat: a
// per-removal σ₂ from incremental spectral downdating took 1428 rounds over
// a 288×256 sweep against 1429 with the baseline σ₂, at an O(k³) build.
func LeaveOneOut(env *etcmat.Env) (baseline *Profile, deltas []Delta) {
	return LeaveOneOutCtx(context.Background(), env)
}

// LeaveOneOutCtx is LeaveOneOut with stage tracing: each characterization
// emits its usual "measures"/"standardize"/"gram"/"eigensolve" spans when ctx
// carries an obs.Trace.
func LeaveOneOutCtx(ctx context.Context, env *etcmat.Env) (baseline *Profile, deltas []Delta) {
	baseline = CharacterizeCtx(ctx, env)
	seed := env.StandardFormSeed()
	for j, name := range env.MachineNames() {
		d := Delta{Kind: "machine", Index: j, Name: name}
		edited, err := env.RemoveMachine(j)
		if err != nil {
			d.Err = err
		} else {
			edited.SetStandardFormSeed(seed.DropCol(j))
			fillDelta(&d, baseline, CharacterizeCtx(ctx, edited))
		}
		deltas = append(deltas, d)
	}
	for i, name := range env.TaskNames() {
		d := Delta{Kind: "task", Index: i, Name: name}
		edited, err := env.RemoveTask(i)
		if err != nil {
			d.Err = err
		} else {
			edited.SetStandardFormSeed(seed.DropRow(i))
			fillDelta(&d, baseline, CharacterizeCtx(ctx, edited))
		}
		deltas = append(deltas, d)
	}
	return baseline, deltas
}

func fillDelta(d *Delta, base, p *Profile) {
	d.MPH, d.TDH, d.TMA = p.MPH, p.TDH, p.TMA
	d.SinkhornIterations = p.SinkhornIterations
	d.DMPH = p.MPH - base.MPH
	d.DTDH = p.TDH - base.TDH
	if base.TMAErr != nil || p.TMAErr != nil {
		d.DTMA = math.NaN()
	} else {
		d.DTMA = p.TMA - base.TMA
	}
}

// Sensitivity holds entrywise finite-difference gradients of the three
// measures with respect to relative perturbations of the ECS entries:
// entry (i, j) of DMPH approximates d MPH / d log ECS(i, j) — the measure
// shift per unit *relative* speed change of task i on machine j. Relative
// derivatives are the natural scale-free choice here (the measures are
// invariant to global scaling, so absolute derivatives would mix units).
type Sensitivity struct {
	DMPH, DTDH, DTMA *matrix.Dense
}

// Sensitivities computes central finite-difference gradients with relative
// step h (default 1e-4 when h <= 0). The environment must be standardizable;
// the cost is 2·T·M cold characterizations. A seed from the baseline scaling
// would sit within O(h) of each perturbed one, but on the small environments
// this serves it saved rounds and no time (DESIGN.md §12).
func Sensitivities(env *etcmat.Env, h float64) (*Sensitivity, error) {
	if h <= 0 {
		h = 1e-4
	}
	base := Characterize(env)
	if base.TMAErr != nil {
		return nil, fmt.Errorf("core: Sensitivities needs a standardizable environment: %w", base.TMAErr)
	}
	t, m := env.Tasks(), env.Machines()
	out := &Sensitivity{
		DMPH: matrix.New(t, m),
		DTDH: matrix.New(t, m),
		DTMA: matrix.New(t, m),
	}
	ecs := env.ECS()
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			v := ecs.At(i, j)
			if v == 0 {
				// A zero entry cannot be perturbed multiplicatively; its
				// sensitivities are reported as zero.
				continue
			}
			up, err := perturbed(env, ecs, i, j, v*(1+h))
			if err != nil {
				return nil, err
			}
			down, err := perturbed(env, ecs, i, j, v*(1-h))
			if err != nil {
				return nil, err
			}
			// d/d log v  =  v * d/dv ; central difference over log step 2h.
			out.DMPH.Set(i, j, (up.MPH-down.MPH)/(2*h))
			out.DTDH.Set(i, j, (up.TDH-down.TDH)/(2*h))
			if up.TMAErr != nil || down.TMAErr != nil {
				out.DTMA.Set(i, j, math.NaN())
			} else {
				out.DTMA.Set(i, j, (up.TMA-down.TMA)/(2*h))
			}
		}
	}
	return out, nil
}

func perturbed(env *etcmat.Env, ecs *matrix.Dense, i, j int, v float64) (*Profile, error) {
	mod := ecs.Clone()
	mod.Set(i, j, v)
	edited, err := etcmat.NewFromECS(mod)
	if err != nil {
		return nil, err
	}
	edited, err = edited.WithWeights(env.TaskWeights(), env.MachineWeights())
	if err != nil {
		return nil, err
	}
	return Characterize(edited), nil
}
