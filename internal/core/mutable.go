package core

// MutableEnv is the incremental characterizer behind /v1/stream: a live
// environment that absorbs a sequence of mutations — add/drop task, add/drop
// machine, cell edits, weight updates — and produces a fresh measure profile
// after each one without paying a cold characterization.
//
// The mechanism is seed-chaining. Every solve leaves behind the converged
// Sinkhorn scaling diagonals and subdominant singular value of its standard
// form (etcmat.Env.StandardFormSeed); each mutation transports that seed to
// the edited shape — DropRow/DropCol carrying the baseline σ₂ for structural
// removals (the leave-one-out seeds of whatif.go), AppendRow/AppendCol with
// a targets-derived scaling for additions, a closed-form rescale for weight
// updates, untouched for cell edits — and the next solve starts from it
// with σ₂-tuned over-relaxation. Because the Sinkhorn scaling is unique
// (Theorem 1), the seeded result is the cold result; only the round count
// changes, so incremental profiles match cold recomputation to the
// convergence tolerance (property-tested at 1e-10).
//
// Seeding is best-effort, never load-bearing: mutations accumulate drift
// (the weighted mass each one moved, relative to the matrix total), and once
// the accumulated drift since the last cold solve exceeds the tolerance the
// next profile is computed cold — no seed, drift reset — re-anchoring the
// chain. A non-converged or non-standardizable solve drops the seed the same
// way, so the fallback path is always a plain CharacterizeCtx.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/etcmat"
	"repro/internal/sinkhorn"
)

// DefaultDriftTolerance is the accumulated relative-mass drift past which a
// MutableEnv re-anchors with a cold solve. At 0.5, half the weighted matrix
// mass must turn over before a recompute; percent-level streaming mutations
// run incremental for ~50 steps between anchors.
const DefaultDriftTolerance = 0.5

// StreamSolveTol is the standard-form convergence tolerance a MutableEnv
// solves at — tighter than sinkhorn.DefaultTol because the acceptance
// property compares chained warm-started profiles against cold recomputation
// at 1e-10: at the paper's 1e-8 tolerance the warm and cold iterates stop at
// different points inside the same convergence ball, and their TMAs can
// differ by a few 1e-10. Solving both to 1e-10 pins each within ~1e-11 of
// the unique standard form (Theorem 1), so the comparison isolates exactly
// what the property claims: seeding never changes the result.
const StreamSolveTol = 1e-10

// MutableEnv holds a live environment and its current profile across a
// mutation stream. It owns its Env: each successful mutation releases the
// previous environment's buffers to the matrix pool, and Close releases the
// final one — callers that need state across mutations must copy it out
// (Env().ECS() and friends clone). Not safe for concurrent use; a stream
// session applies mutations one at a time.
type MutableEnv struct {
	env  *etcmat.Env
	prof *Profile
	seed *sinkhorn.WarmStart

	tol   float64
	drift float64

	incremental int
	recomputed  int
}

// NewMutableEnv computes the opening cold profile and returns the session
// state. It takes ownership of env (see MutableEnv). A non-positive tol
// selects DefaultDriftTolerance.
func NewMutableEnv(ctx context.Context, env *etcmat.Env, tol float64) *MutableEnv {
	if tol <= 0 {
		tol = DefaultDriftTolerance
	}
	me := &MutableEnv{env: env, tol: tol}
	env.SetStandardFormTol(StreamSolveTol)
	me.prof = CharacterizeCtx(ctx, env)
	me.seed = env.StandardFormSeed()
	return me
}

// Env returns the live environment. It is only valid until the next
// mutation (which releases it); clone anything that must outlive it.
func (me *MutableEnv) Env() *etcmat.Env { return me.env }

// Profile returns the profile of the current environment.
func (me *MutableEnv) Profile() *Profile { return me.prof }

// Counts returns how many mutations were served from a warm seed and how
// many fell back to a cold solve (the opening solve counts as neither).
func (me *MutableEnv) Counts() (incremental, recomputed int) {
	return me.incremental, me.recomputed
}

// Close releases the environment's buffers. The MutableEnv is dead after.
func (me *MutableEnv) Close() {
	if me.env != nil {
		me.env.ReleaseBuffers()
		me.env = nil
	}
}

// totalMass returns the weighted mass Σᵢⱼ w_t(i)·w_m(j)·ECS(i,j) of the
// live environment — the denominator of every drift contribution.
func (me *MutableEnv) totalMass() float64 {
	var total float64
	for _, s := range me.env.WeightedRowSums() {
		total += s
	}
	return total
}

// step runs the solve for a derived environment, charging delta to the drift
// account and deciding warm-vs-cold. It installs the new environment and
// profile, refreshes the seed from the converged solve, and releases the
// previous environment. Returns the profile and whether the solve was warm.
func (me *MutableEnv) step(ctx context.Context, next *etcmat.Env, seed *sinkhorn.WarmStart, delta float64) (*Profile, bool) {
	if math.IsNaN(delta) || delta < 0 {
		delta = math.Inf(1)
	}
	me.drift += delta
	next.SetStandardFormTol(StreamSolveTol)
	warm := seed.Matches(next.Tasks(), next.Machines()) && me.drift <= me.tol
	if warm {
		next.SetStandardFormSeed(seed)
		me.incremental++
	} else {
		// Clear any hint a clone carried over: a cold anchor must actually
		// be cold, or the drift account would never re-anchor anything.
		next.SetStandardFormSeed(nil)
		me.recomputed++
		me.drift = 0
	}
	prof := CharacterizeCtx(ctx, next)
	old := me.env
	me.env, me.prof = next, prof
	me.seed = next.StandardFormSeed()
	old.ReleaseBuffers()
	return prof, warm
}

// AddTask appends a task type with the given ECS row. The seed gains a row
// scaling that puts the new weighted row on its standard-form target under
// the current column scalings.
func (me *MutableEnv) AddTask(ctx context.Context, name string, speeds []float64) (*Profile, bool, error) {
	next, err := me.env.AddTask(name, speeds)
	if err != nil {
		return nil, false, err
	}
	mw := me.env.MachineWeights()
	var mass float64
	for j, v := range speeds {
		mass += mw[j] * v // the new task arrives with weight 1
	}
	var seed *sinkhorn.WarmStart
	if me.seed != nil {
		var scaled float64
		for j, v := range speeds {
			scaled += mw[j] * v * me.seed.D2[j]
		}
		rowTarget, _ := sinkhorn.StandardTargets(next.Tasks(), next.Machines())
		seed = me.seed.AppendRow(rowTarget / scaled)
	}
	p, warm := me.step(ctx, next, seed, mass/me.totalMass())
	return p, warm, nil
}

// AddMachine appends a machine with the given ECS column; see AddTask.
func (me *MutableEnv) AddMachine(ctx context.Context, name string, speeds []float64) (*Profile, bool, error) {
	next, err := me.env.AddMachine(name, speeds)
	if err != nil {
		return nil, false, err
	}
	tw := me.env.TaskWeights()
	var mass float64
	for i, v := range speeds {
		mass += tw[i] * v
	}
	var seed *sinkhorn.WarmStart
	if me.seed != nil {
		var scaled float64
		for i, v := range speeds {
			scaled += tw[i] * v * me.seed.D1[i]
		}
		_, colTarget := sinkhorn.StandardTargets(next.Tasks(), next.Machines())
		seed = me.seed.AppendCol(colTarget / scaled)
	}
	p, warm := me.step(ctx, next, seed, mass/me.totalMass())
	return p, warm, nil
}

// DropTask removes task type i. The seed drops the row's scaling and carries
// the baseline σ₂, exactly as the leave-one-out sweep seeds its removals.
func (me *MutableEnv) DropTask(ctx context.Context, i int) (*Profile, bool, error) {
	if i < 0 || i >= me.env.Tasks() {
		return nil, false, fmt.Errorf("%w: task index %d out of range [0,%d)", etcmat.ErrInvalid, i, me.env.Tasks())
	}
	next, err := me.env.RemoveTask(i)
	if err != nil {
		return nil, false, err
	}
	rows := me.env.WeightedRowSums()
	var total float64
	for _, s := range rows {
		total += s
	}
	seed := me.seed.DropRow(i)
	p, warm := me.step(ctx, next, seed, rows[i]/total)
	return p, warm, nil
}

// DropMachine removes machine j; see DropTask.
func (me *MutableEnv) DropMachine(ctx context.Context, j int) (*Profile, bool, error) {
	if j < 0 || j >= me.env.Machines() {
		return nil, false, fmt.Errorf("%w: machine index %d out of range [0,%d)", etcmat.ErrInvalid, j, me.env.Machines())
	}
	next, err := me.env.RemoveMachine(j)
	if err != nil {
		return nil, false, err
	}
	cols := me.env.WeightedColSums()
	var total float64
	for _, s := range cols {
		total += s
	}
	seed := me.seed.DropCol(j)
	p, warm := me.step(ctx, next, seed, cols[j]/total)
	return p, warm, nil
}

// SetCell sets ECS cell (i, j) to v. The seed passes through unchanged — a
// single-cell edit is the canonical warm-start perturbation.
func (me *MutableEnv) SetCell(ctx context.Context, i, j int, v float64) (*Profile, bool, error) {
	next, err := me.env.WithECSCell(i, j, v)
	if err != nil {
		return nil, false, err
	}
	tw, mw := me.env.TaskWeights(), me.env.MachineWeights()
	delta := tw[i] * mw[j] * math.Abs(v-me.env.ECSAt(i, j)) / me.totalMass()
	p, warm := me.step(ctx, next, me.seed, delta)
	return p, warm, nil
}

// SetWeights replaces the weighting vectors (nil keeps the existing one, as
// in Env.WithWeights). A weight change rescales whole lines of the weighted
// matrix, so the seed compensates in closed form: D1'ᵢ = D1ᵢ·wᵢ/w'ᵢ keeps
// every row sum on target, and likewise for columns.
func (me *MutableEnv) SetWeights(ctx context.Context, taskW, machineW []float64) (*Profile, bool, error) {
	next, err := me.env.WithWeights(taskW, machineW)
	if err != nil {
		return nil, false, err
	}
	oldTW, oldMW := me.env.TaskWeights(), me.env.MachineWeights()
	rows := me.env.WeightedRowSums()
	cols := me.env.WeightedColSums()
	var total, moved float64
	for _, s := range rows {
		total += s
	}
	if taskW != nil {
		for i, w := range taskW {
			moved += math.Abs(w-oldTW[i]) * rows[i] / oldTW[i]
		}
	}
	if machineW != nil {
		for j, w := range machineW {
			moved += math.Abs(w-oldMW[j]) * cols[j] / oldMW[j]
		}
	}
	var seed *sinkhorn.WarmStart
	if me.seed != nil {
		d1 := append([]float64(nil), me.seed.D1...)
		d2 := append([]float64(nil), me.seed.D2...)
		if taskW != nil {
			for i := range d1 {
				d1[i] *= oldTW[i] / taskW[i]
			}
		}
		if machineW != nil {
			for j := range d2 {
				d2[j] *= oldMW[j] / machineW[j]
			}
		}
		seed = &sinkhorn.WarmStart{D1: d1, D2: d2, Sigma2: me.seed.Sigma2}
	}
	p, warm := me.step(ctx, next, seed, moved/total)
	return p, warm, nil
}
