package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/wire"
)

// coldBin: two callers POST binary ETC frames, each environment distinct, so
// every request misses the cache, runs the full compute pipeline and writes
// (and, past capacity, evicts) a cache entry.
type coldBin struct {
	h      *harness
	pool   [][]byte // binary frames of the base environments
	seed   int64
	sh     shapes
	next   atomic.Int64 // index of the next operation, across callers
	bodies [][]byte     // per-caller request scratch
	bufs   []*bytes.Buffer

	mu      sync.Mutex
	results map[int64]measures // served measures by operation index
}

func newColdBin(ctx context.Context, sh shapes, seed int64) (_ *coldBin, err error) {
	w := &coldBin{seed: seed, sh: sh, results: map[int64]measures{}}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if w.h, err = startHarness(serverConfig()); err != nil {
		return nil, err
	}
	for i := 0; i < sh.coldPool; i++ {
		env, err := rangeEnv(sh.coldT, sh.coldM, subSeed(seed, 3, int64(i)))
		if err != nil {
			return nil, err
		}
		frame, err := wire.AppendMatrix(nil, env.ETC())
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, frame)
	}
	for c := 0; c < maxClients; c++ {
		w.bodies = append(w.bodies, nil)
		w.bufs = append(w.bufs, new(bytes.Buffer))
	}
	for i := 0; i < sh.coldWarmOps; i++ {
		for c := 0; c < maxClients; c++ {
			if _, err := w.op(ctx, c, nil); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return w, nil
}

func (w *coldBin) harness() *harness { return w.h }
func (w *coldBin) close()            { w.h.close() }

// body renders operation idx's environment into dst: a pooled base frame
// with coldPerturbCells ETC cells scaled by seeded factors in [0.5, 2]. An
// uneven cell perturbation changes the standard form (a diagonal rescaling
// would not: Sinkhorn cancels it) and the content key.
func (w *coldBin) body(dst []byte, idx int64) []byte {
	const coldPerturbCells = 64
	base := w.pool[idx%int64(len(w.pool))]
	dst = append(dst[:0], base...)
	rng := rand.New(rand.NewSource(subSeed(w.seed, 4, idx)))
	cells := (len(base) - wire.HeaderSize) / 8
	for k := 0; k < coldPerturbCells; k++ {
		off := wire.HeaderSize + 8*rng.Intn(cells)
		v := math.Float64frombits(binary.LittleEndian.Uint64(dst[off:]))
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v*(0.5+1.5*rng.Float64())))
	}
	return dst
}

func (w *coldBin) op(ctx context.Context, c int, rec *opRecord) (time.Duration, error) {
	idx := w.next.Add(1) - 1
	w.bodies[c] = w.body(w.bodies[c], idx)
	var phases *httpPhases
	if rec != nil {
		phases = &rec.phases
	}
	buf := w.bufs[c]
	status, lat, err := w.h.post(ctx, "/v1/characterize", wire.ContentTypeMatrix, wire.ContentTypeProfile,
		w.bodies[c], buf, phases)
	if err != nil {
		return lat, err
	}
	if err := httpStatusErr(status, buf.Bytes()); err != nil {
		return lat, err
	}
	p, _, err := wire.DecodeProfile(buf.Bytes())
	if err != nil {
		return lat, fmt.Errorf("decoding profile frame: %w", err)
	}
	if !p.TMAValid {
		return lat, fmt.Errorf("profile frame has no TMA")
	}
	got := measures{p.Tasks, p.Machines, p.MPH, p.TDH, p.TMA}
	if err := got.check(w.sh.coldT, w.sh.coldM); err != nil {
		return lat, err
	}
	w.mu.Lock()
	w.results[idx] = got
	w.mu.Unlock()
	return lat, nil
}

// verify recomputes a seeded sample of the served operations with
// core.Characterize and compares.
func (w *coldBin) verify(ctx context.Context) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.next.Load()
	rng := rand.New(rand.NewSource(subSeed(w.seed, 5)))
	failed := 0
	for k := 0; k < w.sh.coldChecks; k++ {
		if err := ctx.Err(); err != nil {
			return failed, err
		}
		idx := rng.Int63n(n)
		got, ok := w.results[idx]
		if !ok {
			continue // the operation failed and is already counted
		}
		env, err := w.decode(w.body(nil, idx))
		if err != nil {
			return failed, err
		}
		if err := got.match(measuresOf(core.Characterize(env))); err != nil {
			failed++
		}
	}
	return failed, nil
}

// decode turns a request body back into the environment the server solved.
func (w *coldBin) decode(body []byte) (*etcmat.Env, error) {
	m, _, err := wire.DecodeMatrix(body)
	if err != nil {
		return nil, err
	}
	return etcmat.NewFromETC(m)
}

func (w *coldBin) sample(n int) []*etcmat.Env {
	var out []*etcmat.Env
	for i := 0; i < n; i++ {
		if env, err := w.decode(w.body(nil, int64(i))); err == nil {
			out = append(out, env)
		}
	}
	return out
}
