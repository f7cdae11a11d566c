package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/etcmat"
)

// The two consumers that keep the Sinkhorn warm seed keep it because of
// inputs like these: on a nearly decomposable environment the standard
// form's σ₂ sits near 1, a cold solve mixes slowly, and the seed's σ₂-tuned
// over-relaxation cuts the rounds several-fold. The tests assert round
// counts only, which are deterministic, not times.

// nearlyDecomposable returns a 60×40 environment of two 30×20 diagonal
// blocks with speeds in [1, 2), every off-block cell scaled by 1e-2.
func nearlyDecomposable(seed int64) *etcmat.Env {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, 60)
	for i := range rows {
		rows[i] = make([]float64, 40)
		for j := range rows[i] {
			rows[i][j] = 1 + rng.Float64()
			if (i < 30) != (j < 20) {
				rows[i][j] *= 1e-2
			}
		}
	}
	return etcmat.MustFromECS(rows)
}

// TestLeaveOneOutSeedPaysOnNearlyDecomposable: the seeded leave-one-out
// sweep takes under half the Sinkhorn rounds of the same sweep solved cold.
func TestLeaveOneOutSeedPaysOnNearlyDecomposable(t *testing.T) {
	env := nearlyDecomposable(1)
	_, deltas := LeaveOneOut(env)
	seeded, cold := 0, 0
	for _, d := range deltas {
		if d.Err != nil {
			t.Fatalf("%s %d: %v", d.Kind, d.Index, d.Err)
		}
		var edited *etcmat.Env
		var err error
		if d.Kind == "machine" {
			edited, err = env.RemoveMachine(d.Index)
		} else {
			edited, err = env.RemoveTask(d.Index)
		}
		if err != nil {
			t.Fatal(err)
		}
		seeded += d.SinkhornIterations
		cold += Characterize(edited).SinkhornIterations
	}
	if 2*seeded >= cold {
		t.Errorf("seeded sweep took %d Sinkhorn rounds, cold sweep %d: want under half", seeded, cold)
	}
	t.Logf("%d edits: %d rounds seeded, %d cold", len(deltas), seeded, cold)
}

// TestLeaveOneOutWellMixingRunsCold: on a well-mixing environment (σ₂ far
// below seedSigma2Min) the sweep runs cold, so every delta has the rounds
// and the bits of a cold solve of the edited environment.
func TestLeaveOneOutWellMixingRunsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = make([]float64, 20)
		for j := range rows[i] {
			rows[i][j] = 1 + rng.Float64()
		}
	}
	env := etcmat.MustFromECS(rows)
	if _, sv, err := env.StandardForm(); err != nil || sv[1] >= seedSigma2Min {
		t.Fatalf("input is not well mixing: σ₂ = %v, err %v", sv[1], err)
	}
	_, deltas := LeaveOneOut(env)
	for _, d := range deltas {
		var edited *etcmat.Env
		var err error
		if d.Kind == "machine" {
			edited, err = env.RemoveMachine(d.Index)
		} else {
			edited, err = env.RemoveTask(d.Index)
		}
		if err != nil || d.Err != nil {
			t.Fatalf("%s %d: %v / %v", d.Kind, d.Index, err, d.Err)
		}
		cold := Characterize(edited)
		if d.SinkhornIterations != cold.SinkhornIterations || d.TMA != cold.TMA {
			t.Errorf("%s %d: %d rounds, TMA %.17g; cold %d rounds, TMA %.17g",
				d.Kind, d.Index, d.SinkhornIterations, d.TMA, cold.SinkhornIterations, cold.TMA)
		}
	}
}

// TestMutableEnvSeedPaysOnNearlyDecomposable: 30 percent-level cell edits
// served incrementally each match a cold solve at StreamSolveTol to 1e-10,
// and take fewer Sinkhorn rounds in total than those cold solves.
func TestMutableEnvSeedPaysOnNearlyDecomposable(t *testing.T) {
	ctx := context.Background()
	me := NewMutableEnv(ctx, nearlyDecomposable(2), 0)
	defer me.Close()
	rng := rand.New(rand.NewSource(3))
	seeded, cold := 0, 0
	for step := 0; step < 30; step++ {
		i, j := rng.Intn(60), rng.Intn(40)
		got, _, err := me.SetCell(ctx, i, j, me.Env().ECSAt(i, j)*(0.95+0.1*rng.Float64()))
		if err != nil {
			t.Fatal(err)
		}
		want := coldProfileOf(t, me)
		for _, c := range []struct {
			field     string
			got, want float64
		}{
			{"MPH", got.MPH, want.MPH},
			{"TDH", got.TDH, want.TDH},
			{"TMA", got.TMA, want.TMA},
		} {
			if math.Abs(c.got-c.want) > 1e-10 {
				t.Errorf("step %d: %s = %.15g, cold %.15g (Δ %.3g)", step, c.field, c.got, c.want, math.Abs(c.got-c.want))
			}
		}
		seeded += got.SinkhornIterations
		cold += want.SinkhornIterations
	}
	if seeded >= cold {
		t.Errorf("30 cell edits took %d Sinkhorn rounds seeded, %d cold: want fewer", seeded, cold)
	}
	t.Logf("30 cell edits: %d rounds seeded, %d cold", seeded, cold)
}
