// Package hetero is the public API of this repository: a library for
// characterizing task-machine affinity and heterogeneity in heterogeneous
// computing (HC) environments, reproducing
//
//	A. M. Al-Qawasmeh, A. A. Maciejewski, R. G. Roberts, H. J. Siegel,
//	"Characterizing Task-Machine Affinity in Heterogeneous Computing
//	Environments", IEEE IPDPS 2011.
//
// An HC environment is an ETC matrix — entry (i, j) is the estimated time to
// compute task type i on machine j — or equivalently its reciprocal ECS
// (speed) matrix. The package computes the paper's three independent
// heterogeneity measures:
//
//   - MPH, machine performance homogeneity: how evenly machine performances
//     (weighted ECS column sums) are spread;
//   - TDH, task difficulty homogeneity: how evenly task difficulties
//     (weighted ECS row sums) are spread;
//   - TMA, task-machine affinity: how much different task sets prefer
//     different machine sets, measured as the mean non-maximum singular
//     value of the Sinkhorn-standardized ECS matrix.
//
// and provides the supporting machinery: standard-form normalization,
// scalability diagnostics, ETC generators (range-based, CVB and
// measure-targeted), the SPEC-derived example environments of the paper's
// Section V, and a suite of classic mapping heuristics for heterogeneity-
// aware scheduling studies.
//
// # Quick start
//
//	env, err := hetero.FromETC([][]float64{
//		{10.2, 13.1, 9.5},
//		{44.0, 12.9, 30.1},
//	})
//	if err != nil { ... }
//	p := hetero.Characterize(env)
//	fmt.Printf("MPH=%.3f TDH=%.3f TMA=%.3f\n", p.MPH, p.TDH, p.TMA)
//
// See the examples directory for runnable programs.
package hetero

import (
	"context"
	"io"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dynsim"
	"repro/internal/etcmat"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/sinkhorn"
	"repro/internal/spec"
	"repro/internal/wire"
)

// Env is a heterogeneous computing environment: an ETC/ECS matrix with task
// and machine names and optional weighting factors. Envs are immutable;
// editing methods return new values.
type Env = etcmat.Env

// Profile is a full heterogeneity characterization: the three paper measures
// MPH, TDH and TMA, the comparison measures R, G and COV, the raw machine
// performance and task difficulty vectors, and standardization diagnostics.
type Profile = core.Profile

// TMAResult carries the affinity value with its singular values and
// normalization diagnostics.
type TMAResult = core.TMAResult

// Matrix is the dense matrix type used for ETC/ECS data.
type Matrix = matrix.Dense

// FromETC builds an environment from estimated-time-to-compute rows (one row
// per task type, one column per machine). Use math.Inf(1) for a task type
// that cannot run on a machine.
func FromETC(rows [][]float64) (*Env, error) {
	return etcmat.NewFromETC(matrix.FromRows(rows))
}

// FromECS builds an environment from estimated-computation-speed rows (the
// entrywise reciprocal of ETC; 0 marks a task type that cannot run).
func FromECS(rows [][]float64) (*Env, error) {
	return etcmat.NewFromECS(matrix.FromRows(rows))
}

// ReadETCCSV parses an environment from CSV: a header of machine names with
// a leading task-name column, then one row per task type ("inf" marks an
// impossible pairing).
func ReadETCCSV(r io.Reader) (*Env, error) { return etcmat.ReadETCCSV(r) }

// AppendEnvBinary appends the environment's ETC matrix as one binary wire
// frame (the application/x-hc-matrix format the serving tier ingests; see
// API.md §Binary wire format) and returns the extended buffer. Frames are
// self-delimiting, so repeated appends build a valid batch body.
//
// Only the matrix crosses the wire: names and weights are not part of the
// frame (the measures ignore names; clients needing weights use JSON).
func AppendEnvBinary(dst []byte, env *Env) ([]byte, error) {
	return wire.AppendMatrix(dst, env.ETC())
}

// DecodeEnvBinary decodes one binary matrix frame from data into an
// environment, returning the bytes consumed so concatenated frames compose.
func DecodeEnvBinary(data []byte) (*Env, int, error) {
	m, n, err := wire.DecodeMatrix(data)
	if err != nil {
		return nil, 0, err
	}
	env, err := etcmat.NewFromETC(m)
	if err != nil {
		return nil, 0, err
	}
	return env, n, nil
}

// EnvContentKey returns the environment's canonical content address: the
// SHA-256 the serving tier keys its result cache on. Two environments share
// a key exactly when they agree on dimensions, ECS entries and weights
// (names are excluded — the measures ignore them).
func EnvContentKey(env *Env) [32]byte { return env.ContentKey() }

// Ring is the consistent-hash placement ring the serving cluster shards
// environments with (see DESIGN.md §15): each node contributes virtual
// points on a uint64 circle, and an environment is owned by the first R
// distinct nodes clockwise from its content key. Adding or removing a node
// moves only the keys adjacent to its points, so a cluster resizes without
// re-keying every cache.
type Ring = cluster.Ring

// NewRing builds an empty placement ring with the given replication factor
// and virtual-node count per member (<=0 selects the cluster defaults: R=2,
// 64 virtual nodes). Populate it with Ring.Add.
func NewRing(replicas, virtualNodes int) *Ring { return cluster.NewRing(replicas, virtualNodes) }

// EnvOwners returns the nodes responsible for an environment on a ring — the
// replica set a cluster-mode hcserved routes the characterization to. Empty
// until the ring has members.
func EnvOwners(ring *Ring, env *Env) []string { return ring.Owners(env.ContentKey()) }

// EnvNewOwners returns the nodes that newly own env when the placement moves
// from the before ring to the after ring — the replicas a topology change
// leaves cold unless the cluster's cache handoff (DESIGN.md §17) warms them.
// Clients planning a resize can pre-warm exactly these nodes and nothing
// else; an unchanged owner set returns nil.
func EnvNewOwners(before, after *Ring, env *Env) []string {
	return cluster.NewOwners(before, after, env.ContentKey())
}

// Characterize computes the environment's full heterogeneity profile. It
// never fails: a non-standardizable environment (paper Sec. VI) yields
// TMA = NaN with the reason in Profile.TMAErr, and every other field stays
// valid. Callers that prefer an error to a NaN field should use Measures.
func Characterize(env *Env) *Profile { return core.Characterize(env) }

// Measures is the error-returning characterization: the same Profile as
// Characterize, but a pipeline failure comes back as an error instead of a
// NaN field to inspect. The sum-based measures — MPH, TDH and the Figure 2
// comparison measures — never fail on a valid Env, so a non-nil error always
// means the TMA standardization stage (core.ErrNotStandardizable).
func Measures(env *Env) (*Profile, error) { return core.Measures(env) }

// CharacterizeMany profiles a batch of environments on a bounded worker pool
// (workers <= 0 selects GOMAXPROCS) and returns the profiles in input order.
// Characterization is read-only per environment — each Env caches its own
// standard form and SVD — so the batch scales with cores; a nil Env yields a
// nil Profile.
func CharacterizeMany(envs []*Env, workers int) []*Profile {
	// Characterize never fails (TMA errors land in Profile.TMAErr), so the
	// error path is unreachable with a background context.
	out, _ := CharacterizeManyCtx(context.Background(), envs, workers)
	return out
}

// CharacterizeManyCtx is CharacterizeMany with cancellation: when ctx is
// canceled (a serving deadline, an abandoned batch request), environments
// not yet claimed by a worker are skipped — their profiles stay nil — and
// the context error is returned. Profiles computed before the cancellation
// are kept, so callers may use the partial result alongside the error.
func CharacterizeManyCtx(ctx context.Context, envs []*Env, workers int) ([]*Profile, error) {
	return parallel.Map(ctx, len(envs), workers,
		func(ctx context.Context, i int) (*Profile, error) {
			if envs[i] == nil {
				return nil, nil
			}
			return core.CharacterizeCtx(ctx, envs[i]), nil
		})
}

// MPH returns the machine performance homogeneity in (0, 1].
func MPH(env *Env) float64 { return core.MPH(env) }

// TDH returns the task difficulty homogeneity in (0, 1].
func TDH(env *Env) float64 { return core.TDH(env) }

// TMA returns the task-machine affinity in [0, 1] with diagnostics, or
// core.ErrNotStandardizable when the ECS matrix cannot be put in standard
// form (paper Sec. VI).
func TMA(env *Env) (*TMAResult, error) { return core.TMA(env) }

// MachinePerformances returns the weighted ECS column sums (paper Eq. 4).
func MachinePerformances(env *Env) []float64 { return core.MachinePerformances(env) }

// Delta is one leave-one-out measure shift; see LeaveOneOut.
type Delta = core.Delta

// LeaveOneOut computes the measure deltas from removing each machine and
// each task type in turn — the paper's what-if application as a library call.
func LeaveOneOut(env *Env) (*Profile, []Delta) { return core.LeaveOneOut(env) }

// Sensitivity holds entrywise gradients of the measures; see Sensitivities.
type Sensitivity = core.Sensitivity

// Sensitivities computes finite-difference gradients of MPH, TDH and TMA
// with respect to relative changes of each ECS entry.
func Sensitivities(env *Env, h float64) (*Sensitivity, error) { return core.Sensitivities(env, h) }

// TaskDifficulties returns the weighted ECS row sums (paper Eq. 6).
func TaskDifficulties(env *Env) []float64 { return core.TaskDifficulties(env) }

// Standardize puts a nonnegative matrix in the paper's standard form (rows
// summing to √(M/T), columns to √(T/M), largest singular value 1).
func Standardize(a *Matrix) (*sinkhorn.Result, error) { return sinkhorn.Standardize(a) }

// ColumnAngles returns the pairwise angles (radians) between the weighted
// ECS columns — the geometric view of affinity from the paper's Sec. II-E.
func ColumnAngles(env *Env) *Matrix { return core.ColumnAngles(env) }

// MeanColumnAngle summarizes ColumnAngles as a single scalar in [0, π/2].
func MeanColumnAngle(env *Env) float64 { return core.MeanColumnAngle(env) }

// AffinityGroups is a task/machine specialization partition; see
// FindAffinityGroups.
type AffinityGroups = core.AffinityGroups

// FindAffinityGroups clusters tasks and machines into k specialization
// groups using the singular vectors of the standard-form ECS matrix — it
// recovers the structure TMA measures the strength of.
func FindAffinityGroups(env *Env, k int, seed int64) (*AffinityGroups, error) {
	return core.FindAffinityGroups(env, k, seed)
}

// GenerateTarget selects an ETC generator together with its parameters: the
// classic range-based and CVB methods of Ali et al., or this repository's
// measure-targeted construction. Build one with RangeTarget, CVBTarget or
// TargetedTarget and pass it to Generate; the zero value is invalid.
type GenerateTarget = gen.Spec

// RangeTarget requests a range-based environment:
// ETC(i,j) = U[1,rTask] · U[1,rMach]. Larger ranges mean more heterogeneity.
func RangeTarget(tasks, machines int, rTask, rMach float64) GenerateTarget {
	return gen.RangeSpec(tasks, machines, rTask, rMach)
}

// CVBTarget requests a coefficient-of-variation-based environment
// (gamma-distributed task baselines and machine speeds) with task COV vTask,
// machine COV vMach and mean task execution time muTask.
func CVBTarget(tasks, machines int, vTask, vMach, muTask float64) GenerateTarget {
	return gen.CVBSpec(tasks, machines, vTask, vMach, muTask)
}

// TargetedTarget requests an environment whose MPH and TDH hit the given
// values exactly and whose TMA lands within tol (0 selects the default
// 1e-3) — the "span the entire range of heterogeneities" application from
// the paper's introduction.
func TargetedTarget(tasks, machines int, mph, tdh, tma, tol float64) GenerateTarget {
	return gen.TargetedSpec(gen.Target{
		Tasks: tasks, Machines: machines,
		MPH: mph, TDH: tdh, TMA: tma, Tol: tol,
	})
}

// Generate produces an environment from the target spec. Every generator
// returns the same shape — the environment plus the heterogeneity profile it
// achieved — so sweeps record what a parameter choice actually produced
// regardless of method. Generated.Mix is meaningful only for targeted specs.
func Generate(target GenerateTarget, rng *rand.Rand) (*gen.Generated, error) {
	return gen.Generate(target, rng)
}

// Consistency is the Braun et al. ETC taxonomy (consistent, semi-consistent,
// inconsistent), which TMA quantifies.
type Consistency = gen.Consistency

// Consistency classes for WithConsistency.
const (
	Inconsistent   = gen.Inconsistent
	Consistent     = gen.Consistent
	SemiConsistent = gen.SemiConsistent
)

// WithConsistency rearranges an environment's ETC rows into the requested
// consistency class without changing the per-task value distributions.
func WithConsistency(env *Env, c Consistency) (*Env, error) { return gen.WithConsistency(env, c) }

// IsConsistent reports whether every task type ranks the machines
// identically.
func IsConsistent(env *Env) bool { return gen.IsConsistent(env) }

// SPECCINT2006Rate returns the paper's Section V integer-suite environment
// (12 task types x 5 machines), synthesized and calibrated to the published
// measures (TDH 0.90, MPH 0.82, TMA 0.07). See DESIGN.md for the
// substitution rationale.
func SPECCINT2006Rate() *Env { return spec.CINT2006Rate() }

// SPECCFP2006Rate returns the paper's Section V floating-point-suite
// environment (17 task types x 5 machines; TDH 0.91, MPH 0.83, TMA above the
// integer suite's).
func SPECCFP2006Rate() *Env { return spec.CFP2006Rate() }

// Schedule is a mapping produced by a heuristic, with makespan and flowtime.
type Schedule = sched.Schedule

// Heuristic is a static independent-task mapping algorithm.
type Heuristic = sched.Heuristic

// Heuristics returns the fast mapping-heuristic suite (OLB, MET, MCT,
// KPB, Min-Min, Max-Min, Sufferage, Duplex).
func Heuristics() []Heuristic { return sched.All() }

// SearchHeuristics returns the search-based mappers (genetic algorithm and
// simulated annealing, both seeded with Min-Min) with default parameters and
// the given seed.
func SearchHeuristics(seed int64) []Heuristic {
	return []Heuristic{sched.GA{Seed: seed}, sched.SA{Seed: seed}}
}

// Workload expands an environment into a task-instance mapping problem with
// perType instances of every task type, shuffled by rng if non-nil.
func Workload(env *Env, perType int, rng *rand.Rand) (*sched.Instance, error) {
	return sched.UniformWorkload(env, perType, rng)
}

// RunHeuristics maps the instance with every heuristic (All if hs is nil).
func RunHeuristics(in *sched.Instance, hs []Heuristic) ([]*Schedule, error) {
	return sched.RunAll(in, hs)
}

// Robustness is the estimation-error tolerance of a schedule; see
// RobustnessRadius.
type Robustness = sched.Robustness

// RobustnessRadius computes how much collective ETC estimation error a
// schedule absorbs before its makespan exceeds tau times the estimate
// (the FePIA-style robustness radius of the paper's research group).
func RobustnessRadius(in *sched.Instance, s *Schedule, tau float64) (*Robustness, error) {
	return sched.RobustnessRadius(in, s, tau)
}

// Arrival is one dynamic task arrival; see Simulate.
type Arrival = dynsim.Arrival

// DynamicPolicy is an immediate-mode online mapping rule (MCT, MET, OLB,
// KPB, Random).
type DynamicPolicy = dynsim.Policy

// DynamicPolicies returns the immediate-mode policy suite for Simulate.
func DynamicPolicies() []DynamicPolicy { return dynsim.Policies() }

// PoissonWorkload draws n Poisson arrivals at the given rate, with task
// types drawn proportionally to the environment's task weights.
func PoissonWorkload(env *Env, n int, rate float64, rng *rand.Rand) (dynsim.Workload, error) {
	return dynsim.PoissonWorkload(env, n, rate, rng)
}

// Simulate runs a dynamic workload through an immediate-mode policy
// (discrete-event, FIFO machine queues) and reports response-time and
// utilization statistics.
func Simulate(env *Env, w dynsim.Workload, p DynamicPolicy, rng *rand.Rand) (*dynsim.Result, error) {
	return dynsim.Simulate(env, w, p, rng)
}

// SimulateBatch runs the workload in batch mode: arrivals pool until a
// mapping event every interval time units, then the whole unstarted backlog
// is (re-)mapped with Min-Min. Batch mode overtakes immediate mode as load
// grows.
func SimulateBatch(env *Env, w dynsim.Workload, interval float64, rng *rand.Rand) (*dynsim.BatchResult, error) {
	return dynsim.SimulateBatch(env, w, interval, rng)
}
