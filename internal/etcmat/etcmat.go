// Package etcmat models heterogeneous computing (HC) environments the way
// the reproduced paper does: as an ETC (estimated time to compute) matrix
// whose entry (i, j) is the time task type i takes on machine j when run
// alone, or equivalently as its entrywise reciprocal, the ECS (estimated
// computation speed) matrix (paper Eq. 1).
//
// An environment carries task-type and machine names, and the optional
// weighting factors w_t(i) and w_m(j) that the paper folds into every
// measure (Eqs. 4 and 6). A task type that cannot run on a machine has
// ETC = +Inf and ECS = 0. Environments with a task type that runs nowhere,
// or a machine that runs nothing, are invalid (all-zero ECS row/column,
// paper Sec. II-B).
package etcmat

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/sinkhorn"
)

// Env is an immutable-by-convention heterogeneous computing environment.
// Mutating methods return a new Env.
type Env struct {
	ecs            *matrix.Dense // canonical storage: speeds, zeros allowed
	taskNames      []string
	machineNames   []string
	taskWeights    []float64 // w_t, all positive
	machineWeights []float64 // w_m, all positive

	// memo caches quantities derived from the weighted ECS matrix. Because
	// every mutating method returns a new Env (with a fresh memo), cached
	// values can never go stale — invalidation is structural. The memo is
	// safe for concurrent use, so measure queries may run from many
	// goroutines against a shared Env.
	memo *envMemo

	// stdSeed optionally warm-starts the standard-form computation with the
	// scaling vectors of a nearby environment (see SetStandardFormSeed). It
	// is a hint, not derived state: it never goes stale in the correctness
	// sense (a Sinkhorn run converges to the same unique standard form from
	// any positive seed), so clone keeps it across name/weight edits.
	stdSeed *sinkhorn.WarmStart

	// stdTol optionally overrides the standard-form convergence tolerance
	// (see SetStandardFormTol); zero selects sinkhorn.DefaultTol. Like
	// stdSeed it only changes where the iteration stops, never what it
	// converges to, so clone carries it across edits.
	stdTol float64
}

// envMemo holds the lazily computed derived state of an Env: the weighted
// ECS matrix with its row/column sums, and the standard form (Sinkhorn
// balance + singular values) that TMA-style measures repeatedly need. All
// fields are built at most once under mu and are read-only afterwards.
type envMemo struct {
	mu sync.Mutex

	weighted        *matrix.Dense // w_t(i)·w_m(j)·ECS(i,j); treat as read-only
	weightedRowSums []float64
	weightedColSums []float64

	stdDone bool
	std     *sinkhorn.Result // shared; treat as read-only
	stdSV   []float64        // singular values of std.Scaled, descending
	stdErr  error
}

// ErrInvalid wraps all environment validation failures.
var ErrInvalid = errors.New("etcmat: invalid environment")

// NewFromECS builds an environment from an ECS (speed) matrix. Entries must
// be nonnegative and finite; every row and every column must contain at
// least one positive entry. The matrix is cloned.
func NewFromECS(ecs *matrix.Dense) (*Env, error) {
	if err := validateECS(ecs); err != nil {
		return nil, err
	}
	return adoptECS(matrix.ClonePooled(ecs)), nil
}

// NewFromECSOwned is NewFromECS taking ownership of ecs instead of cloning
// it: the environment uses the matrix directly and ReleaseBuffers recycles
// it. The caller must not touch ecs afterwards. This is the ingestion fast
// path — a decoder that already materialized a pooled matrix (see
// matrix.FromDataPooled) hands it over without a second copy.
func NewFromECSOwned(ecs *matrix.Dense) (*Env, error) {
	if err := validateECS(ecs); err != nil {
		return nil, err
	}
	return adoptECS(ecs), nil
}

// validateECS checks ecs in one row-major sweep. Its errors keep the
// precedence of three separate scans: the first bad cell in row-major
// order, then the first all-zero row, then the first all-zero column. A line
// of finite nonnegative cells sums to zero exactly when every cell is zero,
// so a bit per column that has seen a positive cell replaces the column
// sums.
func validateECS(ecs *matrix.Dense) error {
	t, m := ecs.Dims()
	if t == 0 || m == 0 {
		return fmt.Errorf("%w: empty matrix", ErrInvalid)
	}
	var stack [8]uint64
	seen := stack[:]
	if words := (m + 63) / 64; words > len(stack) {
		seen = make([]uint64, words)
	} else {
		seen = seen[:words]
	}
	zeroRow := -1
	data := ecs.RawData()
	for i := 0; i < t; i++ {
		row := data[i*m : (i+1)*m]
		positive := uint64(0)
		for w := range seen {
			// Collect one word of column bits in a register, so the sweep
			// does not chain a load and a store of seen through every cell.
			bits := uint64(0)
			for b, v := range row[w*64 : min(w*64+64, m)] {
				if v > 0 && v <= math.MaxFloat64 {
					bits |= 1 << (b & 63)
				} else if v != 0 { // NaN, ±Inf or negative
					return fmt.Errorf("%w: ECS(%d,%d) = %g must be finite and nonnegative", ErrInvalid, i, w*64+b, v)
				}
			}
			seen[w] |= bits
			positive |= bits
		}
		if positive == 0 && zeroRow < 0 {
			zeroRow = i
		}
	}
	if zeroRow >= 0 {
		return fmt.Errorf("%w: task type %d cannot run on any machine (all-zero ECS row)", ErrInvalid, zeroRow)
	}
	for j := 0; j < m; j++ {
		if seen[j>>6]&(1<<(j&63)) == 0 {
			return fmt.Errorf("%w: machine %d cannot run any task type (all-zero ECS column)", ErrInvalid, j)
		}
	}
	return nil
}

func adoptECS(ecs *matrix.Dense) *Env {
	t, m := ecs.Dims()
	return &Env{
		ecs:            ecs,
		taskNames:      defaultNames("t", t),
		machineNames:   defaultNames("m", m),
		taskWeights:    onesVec(t),
		machineWeights: onesVec(m),
		memo:           &envMemo{},
	}
}

// NewFromETC builds an environment from an ETC (time) matrix. Entries must be
// strictly positive or +Inf (cannot run). The ECS form is stored internally
// (Eq. 1: ECS = 1/ETC, with 1/Inf = 0).
func NewFromETC(etc *matrix.Dense) (*Env, error) {
	t, m := etc.Dims()
	if t == 0 || m == 0 {
		return nil, fmt.Errorf("%w: empty matrix", ErrInvalid)
	}
	ecs := matrix.New(t, m)
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			v := etc.At(i, j)
			switch {
			case math.IsInf(v, 1):
				ecs.Set(i, j, 0)
			case math.IsNaN(v) || v <= 0:
				return nil, fmt.Errorf("%w: ETC(%d,%d) = %g must be positive or +Inf", ErrInvalid, i, j, v)
			default:
				ecs.Set(i, j, 1/v)
			}
		}
	}
	return NewFromECS(ecs)
}

// MustFromECS is NewFromECS that panics on error; for literals in tests and
// examples.
func MustFromECS(rows [][]float64) *Env {
	e, err := NewFromECS(matrix.FromRows(rows))
	if err != nil {
		panic(err)
	}
	return e
}

// MustFromETC is NewFromETC that panics on error.
func MustFromETC(rows [][]float64) *Env {
	e, err := NewFromETC(matrix.FromRows(rows))
	if err != nil {
		panic(err)
	}
	return e
}

// Tasks returns the number of task types T.
func (e *Env) Tasks() int { return e.ecs.Rows() }

// Machines returns the number of machines M.
func (e *Env) Machines() int { return e.ecs.Cols() }

// ECS returns a copy of the ECS (speed) matrix.
func (e *Env) ECS() *matrix.Dense { return e.ecs.Clone() }

// ETC returns the ETC (time) matrix; zero speeds map to +Inf.
func (e *Env) ETC() *matrix.Dense {
	out := e.ecs.Clone()
	out.Apply(func(i, j int, v float64) float64 {
		if v == 0 {
			return math.Inf(1)
		}
		return 1 / v
	})
	return out
}

// WeightedECS returns the ECS matrix with entry (i, j) multiplied by
// w_t(i)·w_m(j) — the matrix every weighted measure is computed from. The
// result is a fresh copy the caller may mutate; the underlying weighted
// matrix is computed once per Env and memoized.
func (e *Env) WeightedECS() *matrix.Dense {
	return e.weightedECS().Clone()
}

// weightedECS returns the memoized weighted ECS matrix. Callers must not
// mutate it.
func (e *Env) weightedECS() *matrix.Dense {
	mm := e.memo
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.weighted == nil {
		w := matrix.ClonePooled(e.ecs)
		w.ScaleRows(e.taskWeights)
		w.ScaleCols(e.machineWeights)
		mm.weighted = w
		mm.weightedRowSums = w.RowSums()
		mm.weightedColSums = w.ColSums()
	}
	return mm.weighted
}

// WeightedRowSums returns a copy of the weighted ECS row sums — the task
// difficulties TD_i of paper Eq. 6 — from the memo.
func (e *Env) WeightedRowSums() []float64 {
	e.weightedECS()
	return matrix.VecClone(e.memo.weightedRowSums)
}

// WeightedColSums returns a copy of the weighted ECS column sums — the
// machine performances MP_j of paper Eq. 4 — from the memo.
func (e *Env) WeightedColSums() []float64 {
	e.weightedECS()
	return matrix.VecClone(e.memo.weightedColSums)
}

// StandardForm standardizes the weighted ECS matrix (paper Theorem 1 with
// k = 1/√(TM)) and computes the singular values of the standard-form matrix,
// memoizing the result: the MPH→TDH→TMA query pattern on one Env pays for
// the Sinkhorn iteration and the SVD exactly once. The returned Result,
// slice and error are shared across callers and must be treated as
// read-only; clone before mutating. On a standardization failure (paper
// Sec. VI) the error and the last iterate are memoized and returned alike.
func (e *Env) StandardForm() (*sinkhorn.Result, []float64, error) {
	return e.StandardFormCtx(context.Background())
}

// StandardFormCtx is StandardForm with stage tracing: when ctx carries an
// obs.Trace and the standard form is not yet memoized, the balancing run and
// the spectral pipeline emit "standardize", "gram" and "eigensolve" spans.
// A memoized hit emits no spans — no work happened.
func (e *Env) StandardFormCtx(ctx context.Context) (*sinkhorn.Result, []float64, error) {
	w := e.weightedECS()
	mm := e.memo
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if !mm.stdDone {
		seed := e.stdSeed
		if !seed.Matches(e.Tasks(), e.Machines()) {
			seed = nil // shape hints that no longer apply are dropped, not errors
		}
		rt, ct := sinkhorn.StandardTargets(w.Dims())
		mm.std, mm.stdErr = sinkhorn.Balance(ctx, w, sinkhorn.Options{
			RowTarget: rt, ColTarget: ct, Tol: e.stdTol, TrimUnsupported: true, Warm: seed,
		})
		if mm.stdErr == nil {
			mm.stdSV = linalg.SingularValuesCtx(ctx, mm.std.Scaled, nil)
		}
		mm.stdDone = true
	}
	return mm.std, mm.stdSV, mm.stdErr
}

// StandardFormSeed extracts a warm-start seed from the memoized standard
// form: the converged scaling diagonals of the weighted ECS matrix plus the
// subdominant singular value σ₂ that selects the over-relaxation factor for
// the seeded run. It returns nil — and does no work — unless StandardForm
// has already run to convergence on this Env, so it is free to call
// speculatively. Seed a derived environment with SetStandardFormSeed; for
// leave-one-out edits drop the removed index first (WarmStart.DropRow /
// DropCol).
func (e *Env) StandardFormSeed() *sinkhorn.WarmStart {
	mm := e.memo
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if !mm.stdDone || mm.stdErr != nil || mm.std == nil || !mm.std.Converged {
		return nil
	}
	seed := &sinkhorn.WarmStart{
		D1: matrix.VecClone(mm.std.D1),
		D2: matrix.VecClone(mm.std.D2),
	}
	if len(mm.stdSV) > 1 {
		seed.Sigma2 = mm.stdSV[1]
	}
	return seed
}

// SetStandardFormSeed installs (or, with nil, clears) the warm-start hint in
// place, so the standard-form computation starts from the given scaling
// vectors instead of the raw weighted matrix (see sinkhorn.WarmStart). It is
// for exclusive owners, before anything is computed or shared: the
// leave-one-out sweep and the streaming session's incremental characterizer
// each derive a fresh Env per edit and seed it at once. The seed is a
// best-effort hint: a shape-mismatched seed clears it rather than erroring,
// and the computed standard form is independent of the seed (Theorem 1
// uniqueness) — only the iteration count changes.
func (e *Env) SetStandardFormSeed(seed *sinkhorn.WarmStart) {
	if seed.Matches(e.Tasks(), e.Machines()) {
		e.stdSeed = seed
	} else {
		e.stdSeed = nil
	}
}

// SetStandardFormTol overrides the convergence tolerance of the standard-form
// Sinkhorn solve in place (non-positive restores sinkhorn.DefaultTol). Like
// SetStandardFormSeed it is for exclusive owners, before anything is computed
// or shared. Tightening the tolerance does not change what the iteration
// converges to (Theorem 1 uniqueness), only how close it stops to the unique
// standard form: the streaming incremental characterizer solves at 1e-10 so
// that chained warm-started profiles and cold re-anchors of the same
// environment agree to well below the paper's measure precision.
func (e *Env) SetStandardFormTol(tol float64) {
	if tol <= 0 {
		tol = 0
	}
	e.stdTol = tol
}

// ReleaseBuffers hands the environment's matrix storage — the ECS clone and
// the memoized weighted and standard-form matrices — back to the shared
// size-classed pool (matrix.Recycle). At fleet scale these are tens to
// hundreds of megabytes per request, so the serving tier recycles them once a
// request's profile has been computed instead of leaving each to the GC.
//
// The caller must be the Env's sole owner and must not use it afterwards:
// every Env deep-clones its matrix state (see clone), so ownership is
// structural, and the recycled matrices are emptied to 0×0 so accidental
// reuse fails loudly. Profiles and DTOs never alias Env storage — everything
// handed out is cloned — which is what makes the release point safe.
func (e *Env) ReleaseBuffers() {
	mm := e.memo
	mm.mu.Lock()
	defer mm.mu.Unlock()
	matrix.Recycle(e.ecs)
	e.ecs = nil
	matrix.Recycle(mm.weighted)
	mm.weighted = nil
	if mm.std != nil {
		matrix.Recycle(mm.std.Scaled)
		mm.std = nil
	}
}

// ECSAt returns ECS(i, j) without copying the matrix.
func (e *Env) ECSAt(i, j int) float64 { return e.ecs.At(i, j) }

// TaskNames returns a copy of the task type names.
func (e *Env) TaskNames() []string { return append([]string(nil), e.taskNames...) }

// MachineNames returns a copy of the machine names.
func (e *Env) MachineNames() []string { return append([]string(nil), e.machineNames...) }

// TaskWeights returns a copy of w_t.
func (e *Env) TaskWeights() []float64 { return matrix.VecClone(e.taskWeights) }

// MachineWeights returns a copy of w_m.
func (e *Env) MachineWeights() []float64 { return matrix.VecClone(e.machineWeights) }

// WithTaskNames returns a copy of e with the given task names.
func (e *Env) WithTaskNames(names []string) (*Env, error) {
	if len(names) != e.Tasks() {
		return nil, fmt.Errorf("%w: %d task names for %d task types", ErrInvalid, len(names), e.Tasks())
	}
	out := e.clone()
	copy(out.taskNames, names)
	return out, nil
}

// WithMachineNames returns a copy of e with the given machine names.
func (e *Env) WithMachineNames(names []string) (*Env, error) {
	if len(names) != e.Machines() {
		return nil, fmt.Errorf("%w: %d machine names for %d machines", ErrInvalid, len(names), e.Machines())
	}
	out := e.clone()
	copy(out.machineNames, names)
	return out, nil
}

// WithWeights returns a copy of e with the given task and machine weighting
// factors (paper Eqs. 4 and 6). Nil keeps the existing weights. All weights
// must be strictly positive.
func (e *Env) WithWeights(taskW, machineW []float64) (*Env, error) {
	out := e.clone()
	if taskW != nil {
		if len(taskW) != e.Tasks() {
			return nil, fmt.Errorf("%w: %d task weights for %d task types", ErrInvalid, len(taskW), e.Tasks())
		}
		if err := checkPositive(taskW, "task weight"); err != nil {
			return nil, err
		}
		copy(out.taskWeights, taskW)
	}
	if machineW != nil {
		if len(machineW) != e.Machines() {
			return nil, fmt.Errorf("%w: %d machine weights for %d machines", ErrInvalid, len(machineW), e.Machines())
		}
		if err := checkPositive(machineW, "machine weight"); err != nil {
			return nil, err
		}
		copy(out.machineWeights, machineW)
	}
	return out, nil
}

func checkPositive(w []float64, what string) error {
	for i, v := range w {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s %d = %g must be positive and finite", ErrInvalid, what, i, v)
		}
	}
	return nil
}

// TaskIndex returns the index of the named task type, or -1.
func (e *Env) TaskIndex(name string) int { return indexOf(e.taskNames, name) }

// MachineIndex returns the index of the named machine, or -1.
func (e *Env) MachineIndex(name string) int { return indexOf(e.machineNames, name) }

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// Subenv extracts the environment restricted to the given task and machine
// indices (the paper's Fig. 8 extractions). Validation reapplies: a
// restriction may strand a task type or machine.
func (e *Env) Subenv(taskIdx, machineIdx []int) (*Env, error) {
	sub := e.ecs.Submatrix(taskIdx, machineIdx)
	out, err := NewFromECS(sub)
	if err != nil {
		return nil, err
	}
	for i, ti := range taskIdx {
		out.taskNames[i] = e.taskNames[ti]
		out.taskWeights[i] = e.taskWeights[ti]
	}
	for j, mj := range machineIdx {
		out.machineNames[j] = e.machineNames[mj]
		out.machineWeights[j] = e.machineWeights[mj]
	}
	return out, nil
}

// RemoveTask returns e without task type i (a what-if edit).
func (e *Env) RemoveTask(i int) (*Env, error) {
	if e.Tasks() == 1 {
		return nil, fmt.Errorf("%w: cannot remove the last task type", ErrInvalid)
	}
	keep := make([]int, 0, e.Tasks()-1)
	for k := 0; k < e.Tasks(); k++ {
		if k != i {
			keep = append(keep, k)
		}
	}
	return e.Subenv(keep, allIndices(e.Machines()))
}

// RemoveMachine returns e without machine j (a what-if edit).
func (e *Env) RemoveMachine(j int) (*Env, error) {
	if e.Machines() == 1 {
		return nil, fmt.Errorf("%w: cannot remove the last machine", ErrInvalid)
	}
	keep := make([]int, 0, e.Machines()-1)
	for k := 0; k < e.Machines(); k++ {
		if k != j {
			keep = append(keep, k)
		}
	}
	return e.Subenv(allIndices(e.Tasks()), keep)
}

// AddTask returns e extended with a new task type whose ECS row is speeds.
func (e *Env) AddTask(name string, speeds []float64) (*Env, error) {
	if len(speeds) != e.Machines() {
		return nil, fmt.Errorf("%w: AddTask needs %d speeds, got %d", ErrInvalid, e.Machines(), len(speeds))
	}
	t, m := e.Tasks(), e.Machines()
	ecs := matrix.New(t+1, m)
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			ecs.Set(i, j, e.ecs.At(i, j))
		}
	}
	for j, v := range speeds {
		ecs.Set(t, j, v)
	}
	out, err := NewFromECS(ecs)
	if err != nil {
		return nil, err
	}
	copy(out.taskNames, e.taskNames)
	out.taskNames[t] = name
	copy(out.taskWeights, e.taskWeights)
	copy(out.machineNames, e.machineNames)
	copy(out.machineWeights, e.machineWeights)
	return out, nil
}

// AddMachine returns e extended with a new machine whose ECS column is
// speeds.
func (e *Env) AddMachine(name string, speeds []float64) (*Env, error) {
	if len(speeds) != e.Tasks() {
		return nil, fmt.Errorf("%w: AddMachine needs %d speeds, got %d", ErrInvalid, e.Tasks(), len(speeds))
	}
	t, m := e.Tasks(), e.Machines()
	ecs := matrix.New(t, m+1)
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			ecs.Set(i, j, e.ecs.At(i, j))
		}
		ecs.Set(i, m, speeds[i])
	}
	out, err := NewFromECS(ecs)
	if err != nil {
		return nil, err
	}
	copy(out.taskNames, e.taskNames)
	copy(out.taskWeights, e.taskWeights)
	copy(out.machineNames, e.machineNames)
	out.machineNames[m] = name
	copy(out.machineWeights, e.machineWeights)
	return out, nil
}

// WithECSCell returns e with ECS cell (i, j) set to v — the streaming
// set-cell mutation. v follows the ECS convention (finite, nonnegative, 0 =
// impossible pairing); setting the last positive entry of a row or column to
// zero is rejected, since the resulting environment would be invalid. The
// standard-form seed hint survives (a single-cell edit is exactly the
// perturbation warm starts were built for).
func (e *Env) WithECSCell(i, j int, v float64) (*Env, error) {
	if i < 0 || i >= e.Tasks() {
		return nil, fmt.Errorf("%w: task index %d out of range [0,%d)", ErrInvalid, i, e.Tasks())
	}
	if j < 0 || j >= e.Machines() {
		return nil, fmt.Errorf("%w: machine index %d out of range [0,%d)", ErrInvalid, j, e.Machines())
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return nil, fmt.Errorf("%w: ECS(%d,%d) = %g must be finite and nonnegative", ErrInvalid, i, j, v)
	}
	if v == 0 {
		if e.ecs.RowSum(i)-e.ecs.At(i, j) == 0 {
			return nil, fmt.Errorf("%w: zeroing ECS(%d,%d) leaves task type %d unable to run anywhere", ErrInvalid, i, j, i)
		}
		if e.ecs.ColSum(j)-e.ecs.At(i, j) == 0 {
			return nil, fmt.Errorf("%w: zeroing ECS(%d,%d) leaves machine %d unable to run anything", ErrInvalid, i, j, j)
		}
	}
	out := e.clone()
	out.ecs.Set(i, j, v)
	return out, nil
}

func (e *Env) clone() *Env {
	return &Env{
		ecs:            matrix.ClonePooled(e.ecs),
		taskNames:      append([]string(nil), e.taskNames...),
		machineNames:   append([]string(nil), e.machineNames...),
		taskWeights:    matrix.VecClone(e.taskWeights),
		machineWeights: matrix.VecClone(e.machineWeights),
		memo:           &envMemo{}, // derived state is never shared across Envs
		stdSeed:        e.stdSeed,  // a hint, not derived state: safe to share
		stdTol:         e.stdTol,
	}
}

func defaultNames(prefix string, n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s%d", prefix, i+1)
	}
	return names
}

func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func onesVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// ---- I/O ----

// WriteETCCSV writes the environment as a CSV with a header row of machine
// names and a leading task-name column. Infinite ETC entries are written as
// "inf".
func (e *Env) WriteETCCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"task"}, e.machineNames...)
	if err := cw.Write(header); err != nil {
		return err
	}
	etc := e.ETC()
	for i := 0; i < e.Tasks(); i++ {
		rec := make([]string, e.Machines()+1)
		rec[0] = e.taskNames[i]
		for j := 0; j < e.Machines(); j++ {
			v := etc.At(i, j)
			if math.IsInf(v, 1) {
				rec[j+1] = "inf"
			} else {
				rec[j+1] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadETCCSV parses the format written by WriteETCCSV.
func ReadETCCSV(r io.Reader) (*Env, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("etcmat: reading CSV: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("%w: CSV needs a header and at least one task row", ErrInvalid)
	}
	header := records[0]
	if len(header) < 2 {
		return nil, fmt.Errorf("%w: CSV needs at least one machine column", ErrInvalid)
	}
	machineNames := header[1:]
	taskNames := make([]string, 0, len(records)-1)
	etc := matrix.New(len(records)-1, len(machineNames))
	for i, rec := range records[1:] {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("%w: row %d has %d fields, want %d", ErrInvalid, i+2, len(rec), len(header))
		}
		taskNames = append(taskNames, rec[0])
		for j, field := range rec[1:] {
			field = strings.TrimSpace(field)
			var v float64
			if strings.EqualFold(field, "inf") {
				v = math.Inf(1)
			} else {
				v, err = strconv.ParseFloat(field, 64)
				if err != nil {
					return nil, fmt.Errorf("%w: row %d col %d: %v", ErrInvalid, i+2, j+2, err)
				}
			}
			etc.Set(i, j, v)
		}
	}
	env, err := NewFromETC(etc)
	if err != nil {
		return nil, err
	}
	copy(env.taskNames, taskNames)
	copy(env.machineNames, machineNames)
	return env, nil
}

// envJSON is the stable JSON representation of an environment.
type envJSON struct {
	TaskNames      []string    `json:"taskNames"`
	MachineNames   []string    `json:"machineNames"`
	TaskWeights    []float64   `json:"taskWeights,omitempty"`
	MachineWeights []float64   `json:"machineWeights,omitempty"`
	ECS            [][]float64 `json:"ecs"`
}

// MarshalJSON encodes the environment, storing the ECS form (always finite).
func (e *Env) MarshalJSON() ([]byte, error) {
	rows := make([][]float64, e.Tasks())
	for i := range rows {
		rows[i] = e.ecs.Row(i)
	}
	return json.Marshal(envJSON{
		TaskNames:      e.taskNames,
		MachineNames:   e.machineNames,
		TaskWeights:    e.taskWeights,
		MachineWeights: e.machineWeights,
		ECS:            rows,
	})
}

// UnmarshalJSON decodes an environment encoded by MarshalJSON.
func (e *Env) UnmarshalJSON(data []byte) error {
	var ej envJSON
	if err := json.Unmarshal(data, &ej); err != nil {
		return err
	}
	if len(ej.ECS) == 0 {
		return fmt.Errorf("%w: missing or empty ecs matrix", ErrInvalid)
	}
	for i, row := range ej.ECS {
		if len(row) != len(ej.ECS[0]) {
			return fmt.Errorf("%w: ragged ecs matrix (row 0 has %d entries, row %d has %d)",
				ErrInvalid, len(ej.ECS[0]), i, len(row))
		}
	}
	env, err := NewFromECS(matrix.FromRows(ej.ECS))
	if err != nil {
		return err
	}
	if len(ej.TaskNames) == env.Tasks() {
		copy(env.taskNames, ej.TaskNames)
	}
	if len(ej.MachineNames) == env.Machines() {
		copy(env.machineNames, ej.MachineNames)
	}
	if ej.TaskWeights != nil {
		if env, err = env.WithWeights(ej.TaskWeights, nil); err != nil {
			return err
		}
	}
	if ej.MachineWeights != nil {
		if env, err = env.WithWeights(nil, ej.MachineWeights); err != nil {
			return err
		}
	}
	*e = *env
	return nil
}

// String summarizes the environment.
func (e *Env) String() string {
	return fmt.Sprintf("Env{%d task types x %d machines}", e.Tasks(), e.Machines())
}
