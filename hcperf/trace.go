package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/server"
	"repro/internal/sinkhorn"
	"repro/internal/wire"
)

// stage is one server stage timing seen by a traced operation; start is the
// offset from the server's own anchor.
type stage struct {
	name       string
	start, dur time.Duration
}

// opRecord is what a traced operation leaves behind.
type opRecord struct {
	start  time.Time
	lat    time.Duration
	failed bool
	phases httpPhases
	stages []stage
}

// echo keeps the stages of a ?trace=1 timings echo.
func (r *opRecord) echo(t *server.TimingsDTO) {
	if t == nil {
		return
	}
	for _, s := range t.Stages {
		r.stages = append(r.stages, stage{s.Stage,
			time.Duration(s.StartMs * float64(time.Millisecond)), time.Duration(s.Ms * float64(time.Millisecond))})
	}
}

// span is one recorded interval: name, start and end (µs from the start of
// the run), the span that caused it (0 for a root) and the operation it
// belongs to.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// recorder keeps spans in memory until the run writes them out. It is used
// from one goroutine at a time.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) add(parent, op int, name string, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{id, parent, op, name, us(start.Sub(r.t0)), us(end.Sub(r.t0))})
	return id
}

// timed runs fn as a span and returns its duration.
func (r *recorder) timed(parent, op int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(parent, op, name, start, end)
	return end.Sub(start)
}

// addOps records the traced window's operations: one root span per
// operation with its httptrace phases and reported stages as children.
// Stage offsets come from the server's own clock and are placed relative to
// the operation's start.
func (r *recorder) addOps(firstOp int, recs []*opRecord) {
	for k, rec := range recs {
		op := firstOp + k
		root := r.add(0, op, "op", rec.start, rec.start.Add(rec.lat))
		w := rec.start.Add(rec.phases.write)
		f := w.Add(rec.phases.ttfb)
		r.add(root, op, "http.write", rec.start, w)
		r.add(root, op, "http.ttfb", w, f)
		r.add(root, op, "http.read", f, f.Add(rec.phases.read))
		for _, s := range rec.stages {
			r.add(root, op, "stage."+s.name, rec.start.Add(s.start), rec.start.Add(s.start+s.dur))
		}
	}
}

// write stores the spans as JSON under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// replayPlan sizes the layer replay of one workload: how many of its
// environments go through every layer function, and how many rounds of the
// six mutation kinds go through core.MutableEnv.
type replayPlan struct {
	envs, rounds int
}

var replayPlans = map[string]replayPlan{
	"warm_json": {envs: 16, rounds: 3},
	"cold_bin":  {envs: 6, rounds: 1},
}

// fleetPasses is how many tiled and untiled column passes the replay times
// on the fleet-sized matrix.
const fleetPasses = 4

// cloneEnv returns a fresh environment with env's cells and weights and
// nothing memoized, so the layer under test does all its work.
func cloneEnv(env *etcmat.Env) (*etcmat.Env, error) {
	fresh, err := etcmat.NewFromECS(env.ECS())
	if err != nil {
		return nil, err
	}
	return fresh.WithWeights(env.TaskWeights(), env.MachineWeights())
}

// replayLayers runs a sample of the workload's inputs through each layer's
// public function, one call per input and layer, recording a span per call.
// It returns each layer metric's samples.
func replayLayers(ctx context.Context, r *recorder, firstOp int, w workload, plan replayPlan, sh shapes, seed int64) (map[string][]float64, error) {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	envs := w.sample(plan.envs)
	if len(envs) == 0 {
		return nil, fmt.Errorf("workload has no environments to replay")
	}
	var err error
	check := func(e error) {
		if err == nil && e != nil {
			err = e
		}
	}
	for k, env := range envs {
		op := firstOp + k
		start := time.Now()
		root := r.add(0, op, "replay", start, start) // end fixed below
		jsonBody, e := json.Marshal(server.EnvToDTO(env))
		check(e)
		binBody, e := wire.AppendMatrix(nil, env.ETC())
		check(e)
		add("server.decode_json_us", us(r.timed(root, op, "server.decode_json", func() {
			_, e := server.DecodeEnvContentKey(jsonBody, "application/json")
			check(e)
		})))
		add("wire.decode_matrix_us", us(r.timed(root, op, "wire.decode_matrix", func() {
			_, _, e := wire.DecodeMatrix(binBody)
			check(e)
		})))
		weighted := env.WeightedECS()
		var std *sinkhorn.Result
		add("sinkhorn.standardize_ms", ms(r.timed(root, op, "sinkhorn.standardize", func() {
			std, e = sinkhorn.Standardize(weighted)
		})))
		if e != nil {
			return nil, fmt.Errorf("replaying standardize: %w", e)
		}
		add("sinkhorn.rounds", float64(std.Iterations))
		edge := min(weighted.Rows(), weighted.Cols())
		gram := matrix.New(edge, edge)
		add("matrix.gram_ms", ms(r.timed(root, op, "matrix.gram", func() { matrix.GramInto(gram, std.Scaled) })))
		add("linalg.singular_values_ms", ms(r.timed(root, op, "linalg.singular_values", func() {
			linalg.SingularValuesCtx(ctx, std.Scaled, nil)
		})))
		add("linalg.sv_w1_ms", ms(r.timed(root, op, "linalg.sv_w1", func() { linalg.SingularValuesPar(std.Scaled, nil, 1) })))
		add("linalg.sv_w2_ms", ms(r.timed(root, op, "linalg.sv_w2", func() { linalg.SingularValuesPar(std.Scaled, nil, 2) })))
		fresh, e := cloneEnv(env)
		check(e)
		add("core.sum_measures_ms", ms(r.timed(root, op, "core.sum_measures", func() {
			core.MPH(fresh)
			core.TDH(fresh)
			core.RatioR(fresh)
			core.GeoMeanG(fresh)
			core.COV(fresh)
			core.MachinePerformances(fresh)
			core.TaskDifficulties(fresh)
		})))
		fresh, e = cloneEnv(env)
		check(e)
		var p *core.Profile
		add("core.characterize_ms", ms(r.timed(root, op, "core.characterize", func() { p = core.CharacterizeCtx(ctx, fresh) })))
		add("server.encode_json_us", us(r.timed(root, op, "server.encode_json", func() {
			_, e := json.Marshal(server.ProfileToDTO(p, true))
			check(e)
		})))
		r.spans[root-1].End = us(time.Since(r.t0))
		if err != nil {
			return nil, fmt.Errorf("replaying layers: %w", err)
		}
	}
	if err := replayPasses(r, firstOp+len(envs), sh, seed, add); err != nil {
		return nil, err
	}
	if err := replayMutable(ctx, r, firstOp+len(envs)+1, envs[0], plan, seed, add); err != nil {
		return nil, err
	}
	return samples, nil
}

// replayPasses times Sinkhorn's column pass, tiled and untiled, on one seeded
// fleet-sized matrix: the size at which Balance switches to the tiled walk.
// The factors alternate with their reciprocals so the cells stay bounded.
func replayPasses(r *recorder, op int, sh shapes, seed int64, add func(string, float64)) error {
	env, err := rangeEnv(sh.fleetT, sh.fleetM, subSeed(seed, 12))
	if err != nil {
		return err
	}
	w := env.WeightedECS()
	rng := rand.New(rand.NewSource(subSeed(seed, 13)))
	up, down := make([]float64, w.Cols()), make([]float64, w.Cols())
	for j := range up {
		up[j] = 0.5 + 1.5*rng.Float64()
		down[j] = 1 / up[j]
	}
	rowSums := make([]float64, w.Rows())
	root := r.add(0, op, "replay.passes", time.Now(), time.Now())
	for k := 0; k < fleetPasses; k++ {
		f := up
		if k%2 == 1 {
			f = down
		}
		add("sinkhorn.pass_tiled_ms", ms(r.timed(root, op, "sinkhorn.pass_tiled", func() {
			sinkhorn.ScaleColsRowSumsTiled(w, f, rowSums)
		})))
		add("sinkhorn.pass_untiled_ms", ms(r.timed(root, op, "sinkhorn.pass_untiled", func() {
			w.ScaleColsRowSums(f, rowSums)
		})))
	}
	r.spans[root-1].End = us(time.Since(r.t0))
	return nil
}

// replayMutable opens a core.MutableEnv on env and applies rounds of all six
// mutation kinds, timing each mutation and, after every six, a cold solve of
// the same environment at the stream solver's tolerance.
func replayMutable(ctx context.Context, r *recorder, op int, env *etcmat.Env, plan replayPlan, seed int64,
	add func(string, float64)) error {
	start, err := cloneEnv(env)
	if err != nil {
		return err
	}
	root := r.add(0, op, "replay.mutable", time.Now(), time.Now())
	me := core.NewMutableEnv(ctx, start, 0)
	defer me.Close()
	g := newMutGen(subSeed(seed, 11), env.Tasks(), env.Machines())
	for k := 0; k < plan.rounds; k++ {
		for _, kind := range mutKinds {
			m := g.make(kind)
			var e error
			d := r.timed(root, op, "core.mutable_"+m.kind, func() { _, _, e = applyMutable(ctx, me, m) })
			if e != nil {
				return fmt.Errorf("replaying %s: %w", m.kind, e)
			}
			add("core.mutable_"+m.kind+"_ms", ms(d))
		}
		cold, err := cloneEnv(me.Env())
		if err != nil {
			return err
		}
		cold.SetStandardFormTol(core.StreamSolveTol)
		add("core.cold_characterize_ms", ms(r.timed(root, op, "core.cold_characterize", func() { core.CharacterizeCtx(ctx, cold) })))
	}
	inc, rec := me.Counts()
	add("core.mutable_incremental_ratio", ratio(float64(inc), float64(inc+rec)))
	r.spans[root-1].End = us(time.Since(r.t0))
	return nil
}
