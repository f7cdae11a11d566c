package repro

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sinkhorn"
)

// Scale stress tests: the measures must remain correct and stable at
// simulation-study sizes far beyond the paper's 17x5 matrices. Skipped under
// -short.

func TestScaleStandardizeLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	rng := rand.New(rand.NewSource(200))
	a := matrix.New(1024, 128)
	for i := range a.RawData() {
		a.RawData()[i] = 0.01 + rng.Float64()*100
	}
	res, err := sinkhorn.Standardize(a)
	if err != nil {
		t.Fatal(err)
	}
	rt, ct := sinkhorn.StandardTargets(1024, 128)
	for _, s := range res.Scaled.RowSums() {
		if math.Abs(s-rt) > 1e-6 {
			t.Fatalf("row sum %g, want %g", s, rt)
		}
	}
	for _, s := range res.Scaled.ColSums() {
		if math.Abs(s-ct) > 1e-6 {
			t.Fatalf("col sum %g, want %g", s, ct)
		}
	}
	if res.Iterations > 100 {
		t.Errorf("took %d iterations at 1024x128", res.Iterations)
	}
}

func TestScaleTMALarge(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	rng := rand.New(rand.NewSource(201))
	rows := make([][]float64, 512)
	for i := range rows {
		rows[i] = make([]float64, 64)
		for j := range rows[i] {
			rows[i][j] = 0.01 + rng.Float64()*100
		}
	}
	env := etcmat.MustFromECS(rows)
	r, err := core.TMA(env)
	if err != nil {
		t.Fatal(err)
	}
	if r.TMA < 0 || r.TMA > 1 {
		t.Fatalf("TMA = %g out of range", r.TMA)
	}
	if math.Abs(r.SingularValues[0]-1) > 1e-5 {
		t.Errorf("σ1 = %g at scale, want 1", r.SingularValues[0])
	}
}

// A full 1k×1k characterization through the parallel pipeline must finish
// and must produce the exact profile of the serial pipeline — the ISSUE's
// bit-identity acceptance at an end-to-end scale the kernel tests can't
// reach. Run explicitly with: go test -run TestScaleCharacterize1kParallelBitIdentical
func TestScaleCharacterize1kParallelBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	if raceEnabled {
		// Deterministic equality check, no shared state: race coverage of the
		// same kernels lives in the package pounding tests at sizes past every
		// threshold, without paying for an instrumented O(n³) pipeline.
		t.Skip("covered under race by the package-level pounding tests")
	}
	rng := rand.New(rand.NewSource(203))
	ecs := randomECS(rng, 1000, 1000)

	serialEnv, err := etcmat.NewFromECS(ecs)
	if err != nil {
		t.Fatal(err)
	}
	serial := core.CharacterizeCtx(parallel.WithWorkers(context.Background(), 1), serialEnv)
	if serial.TMAErr != nil {
		t.Fatal(serial.TMAErr)
	}

	parEnv, err := etcmat.NewFromECS(ecs)
	if err != nil {
		t.Fatal(err)
	}
	par := core.CharacterizeCtx(parallel.WithWorkers(context.Background(), 4), parEnv)
	if par.TMAErr != nil {
		t.Fatal(par.TMAErr)
	}

	if par.TMA != serial.TMA || par.MPH != serial.MPH || par.TDH != serial.TDH {
		t.Errorf("parallel profile differs: TMA %v vs %v, MPH %v vs %v, TDH %v vs %v",
			par.TMA, serial.TMA, par.MPH, serial.MPH, par.TDH, serial.TDH)
	}
	// The full memoized spectra must match bit for bit, not just the scalars.
	serialTMA, err := core.TMA(serialEnv)
	if err != nil {
		t.Fatal(err)
	}
	parTMA, err := core.TMA(parEnv)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serialTMA.SingularValues {
		if parTMA.SingularValues[i] != serialTMA.SingularValues[i] {
			t.Fatalf("σ[%d]: parallel %v != serial %v", i, parTMA.SingularValues[i], serialTMA.SingularValues[i])
		}
	}
	serialEnv.ReleaseBuffers()
	parEnv.ReleaseBuffers()
}

// The ISSUE's parallel-speedup acceptance: at GOMAXPROCS >= 4 a 4k×4k
// characterization through the parallel pipeline must beat the serial one by
// at least 2x (and agree bit for bit). On smaller hosts there is no
// parallelism to measure and the test skips — concurrency alone only adds
// fan-out overhead. Run explicitly with:
// go test -run TestScaleCharacterize4kSpeedup -timeout 30m
func TestScaleCharacterize4kSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	if raceEnabled {
		t.Skip("wall-clock ratio assertion; race instrumentation distorts it")
	}
	if p := runtime.GOMAXPROCS(0); p < 4 {
		t.Skipf("GOMAXPROCS = %d: need >= 4 cores to demonstrate a 2x speedup", p)
	}
	rng := rand.New(rand.NewSource(204))
	ecs := randomECS(rng, 4096, 4096)

	measure := func(workers int) (*core.Profile, time.Duration) {
		env, err := etcmat.NewFromECS(ecs)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		p := core.CharacterizeCtx(parallel.WithWorkers(context.Background(), workers), env)
		elapsed := time.Since(start)
		if p.TMAErr != nil {
			t.Fatal(p.TMAErr)
		}
		env.ReleaseBuffers()
		return p, elapsed
	}

	serial, serialDur := measure(1)
	par, parDur := measure(runtime.GOMAXPROCS(0))
	if par.TMA != serial.TMA {
		t.Errorf("parallel TMA %v != serial %v", par.TMA, serial.TMA)
	}
	speedup := float64(serialDur) / float64(parDur)
	t.Logf("4k characterize: serial %v, parallel %v, speedup %.2fx", serialDur, parDur, speedup)
	if speedup < 2 {
		t.Errorf("parallel speedup %.2fx < 2x at GOMAXPROCS %d", speedup, runtime.GOMAXPROCS(0))
	}
}

func TestScaleSVDAgreementLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	rng := rand.New(rand.NewSource(202))
	a := matrix.New(200, 40)
	for i := range a.RawData() {
		a.RawData()[i] = rng.NormFloat64()
	}
	gr, err := linalg.SVDGolubReinsch(a)
	if err != nil {
		t.Fatal(err)
	}
	jac := linalg.SVDJacobi(a)
	if !matrix.VecEqualTol(gr.S, jac.S, 1e-8*(1+gr.S[0])) {
		t.Error("SVD algorithms disagree at 200x40")
	}
}
