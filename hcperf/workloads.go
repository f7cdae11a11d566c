package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/gen"
	"repro/internal/server"
)

// profileTol bounds |Δ| on MPH, TDH and TMA between a served profile and a
// recomputation of the same environment. Every report states it.
const profileTol = 1e-9

// maxClients is the most closed-loop callers any workload runs: one per
// core of the two-core machine the benchmark is sized for.
const maxClients = 2

// workload is one benchmark traffic mix against an in-process server. A
// constructor builds its inputs, starts the server and runs its fixed
// warm-up pass; close releases everything it started.
type workload interface {
	// op runs caller c's next operation and returns its client-timed
	// latency. An error marks the operation failed: a non-2xx reply, a
	// transport error or a wrong result. rec is nil outside traced windows;
	// otherwise op fills in the layer timings it can see.
	op(ctx context.Context, c int, rec *opRecord) (time.Duration, error)
	// verify runs the checks made after the timed windows and returns how
	// many operations they found wrong.
	verify(ctx context.Context) (int, error)
	// sample returns up to n of the workload's environments for the layer
	// replay of a traced run.
	sample(n int) []*etcmat.Env
	// harness is the in-process server the workload drives.
	harness() *harness
	close()
}

// shapes sizes every workload. fullShapes is the benchmark; tests shrink it.
// fleetT×fleetM is the size at which the traced replay times the tiled
// Sinkhorn passes: past tiledBalanceMin (2 Mi cells), where the program
// takes them.
type shapes struct {
	warmT, warmM, warmEnvs  int
	coldT, coldM, coldPool  int
	coldWarmOps, coldChecks int
	fleetT, fleetM          int
}

var fullShapes = shapes{
	warmT: 150, warmM: 80, warmEnvs: 64,
	coldT: 512, coldM: 256, coldPool: 8, coldWarmOps: 8, coldChecks: 8,
	fleetT: 8192, fleetM: 256,
}

var workloadNames = []string{"warm_json", "cold_bin"}

// newWorkload builds the named workload for seed.
func newWorkload(ctx context.Context, name string, sh shapes, seed int64) (workload, error) {
	switch name {
	case "warm_json":
		return newWarmJSON(ctx, sh, seed)
	case "cold_bin":
		return newColdBin(ctx, sh, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// subSeed derives an independent stream seed from the run seed and a
// purpose/index pair (SplitMix64 finalizer), so inputs depend on --seed only.
func subSeed(seed int64, parts ...int64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9e3779b97f4a7c15 + uint64(p)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// rangeEnv draws a range-based T×M environment (task range 100, machine
// range 10, as in hcload).
func rangeEnv(t, m int, seed int64) (*etcmat.Env, error) {
	return gen.RangeBased(t, m, 100, 10, rand.New(rand.NewSource(seed)))
}

// measures is the part of a profile every check compares.
type measures struct {
	tasks, machines int
	mph, tdh, tma   float64
}

func measuresOf(p *core.Profile) measures {
	return measures{p.Tasks, p.Machines, p.MPH, p.TDH, p.TMA}
}

// check validates the served shape and that MPH, TDH and TMA lie in [0, 1].
func (m measures) check(tasks, machines int) error {
	if m.tasks != tasks || m.machines != machines {
		return fmt.Errorf("profile is %dx%d, want %dx%d", m.tasks, m.machines, tasks, machines)
	}
	for _, v := range []float64{m.mph, m.tdh, m.tma} {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("measure %g outside [0, 1] (mph %g tdh %g tma %g)", v, m.mph, m.tdh, m.tma)
		}
	}
	return nil
}

// match compares m with a reference within profileTol.
func (m measures) match(ref measures) error {
	if err := m.check(ref.tasks, ref.machines); err != nil {
		return err
	}
	if math.Abs(m.mph-ref.mph) > profileTol || math.Abs(m.tdh-ref.tdh) > profileTol ||
		math.Abs(m.tma-ref.tma) > profileTol {
		return fmt.Errorf("profile (mph %.17g tdh %.17g tma %.17g) differs from reference (%.17g %.17g %.17g) by more than %g",
			m.mph, m.tdh, m.tma, ref.mph, ref.tdh, ref.tma, profileTol)
	}
	return nil
}

// profileJSON is the part of a JSON profile response the checks read.
type profileJSON struct {
	Tasks    int                `json:"tasks"`
	Machines int                `json:"machines"`
	MPH      float64            `json:"mph"`
	TDH      float64            `json:"tdh"`
	TMA      *float64           `json:"tma"`
	Timings  *server.TimingsDTO `json:"timings"`
}

func (p *profileJSON) measures() (measures, error) {
	if p.TMA == nil {
		return measures{}, fmt.Errorf("profile has no TMA")
	}
	return measures{p.Tasks, p.Machines, p.MPH, p.TDH, *p.TMA}, nil
}

// httpStatusErr reports a non-2xx reply.
func httpStatusErr(status int, body []byte) error {
	if status/100 == 2 {
		return nil
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("HTTP %d: %s", status, body)
}

// warmJSON: two callers POST JSON environments drawn from a pool that the
// warm-up pass has put in the result cache, so every request is a hit.
type warmJSON struct {
	h      *harness
	bodies [][]byte
	refs   []measures
	rngs   []*rand.Rand
	bufs   []*bytes.Buffer
}

func newWarmJSON(ctx context.Context, sh shapes, seed int64) (_ *warmJSON, err error) {
	w := &warmJSON{}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if w.h, err = startHarness(serverConfig()); err != nil {
		return nil, err
	}
	for i := 0; i < sh.warmEnvs; i++ {
		env, err := rangeEnv(sh.warmT, sh.warmM, subSeed(seed, 1, int64(i)))
		if err != nil {
			return nil, err
		}
		dto := server.EnvToDTO(env)
		body, err := json.Marshal(dto)
		if err != nil {
			return nil, err
		}
		// The reference is solved from the environment as the server
		// decodes it (ETC cells reciprocated), not from the generator's.
		served, err := dto.Env()
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
		w.refs = append(w.refs, measuresOf(core.Characterize(served)))
	}
	for c := 0; c < maxClients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(subSeed(seed, 2, int64(c)))))
		w.bufs = append(w.bufs, new(bytes.Buffer))
	}
	// Warm-up: the first pass fills the cache, the second runs the hit path.
	for pass := 0; pass < 2; pass++ {
		for i := range w.bodies {
			if _, err := w.post(ctx, 0, i, nil); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return w, nil
}

func (w *warmJSON) harness() *harness                   { return w.h }
func (w *warmJSON) close()                              { w.h.close() }
func (w *warmJSON) verify(context.Context) (int, error) { return 0, nil }

func (w *warmJSON) sample(n int) []*etcmat.Env {
	var out []*etcmat.Env
	for i := 0; i < n && i < len(w.bodies); i++ {
		var dto server.EnvDTO
		if json.Unmarshal(w.bodies[i], &dto) != nil {
			continue
		}
		if env, err := dto.Env(); err == nil {
			out = append(out, env)
		}
	}
	return out
}

func (w *warmJSON) op(ctx context.Context, c int, rec *opRecord) (time.Duration, error) {
	return w.post(ctx, c, w.rngs[c].Intn(len(w.bodies)), rec)
}

// post sends body i as caller c and checks the reply against its reference.
// rec, when non-nil, asks for the ?trace=1 stage echo and receives it with
// the httptrace split.
func (w *warmJSON) post(ctx context.Context, c, i int, rec *opRecord) (time.Duration, error) {
	path := "/v1/characterize"
	var phases *httpPhases
	if rec != nil {
		path += "?trace=1"
		phases = &rec.phases
	}
	buf := w.bufs[c]
	status, lat, err := w.h.post(ctx, path, "application/json", "", w.bodies[i], buf, phases)
	if err != nil {
		return lat, err
	}
	if err := httpStatusErr(status, buf.Bytes()); err != nil {
		return lat, err
	}
	var p profileJSON
	if err := json.Unmarshal(buf.Bytes(), &p); err != nil {
		return lat, fmt.Errorf("decoding profile: %w", err)
	}
	got, err := p.measures()
	if err != nil {
		return lat, err
	}
	if rec != nil {
		rec.echo(p.Timings)
	}
	return lat, got.match(w.refs[i])
}
