package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/etcmat"
)

// applyRandomMutation applies one randomly chosen mutation to me, returning
// its name (for failure messages) and whether it was served incrementally.
// Mutations that would invalidate the environment (dropping below 2x2) are
// re-rolled into cell edits.
func applyRandomMutation(t *testing.T, rng *rand.Rand, me *MutableEnv) (string, bool) {
	t.Helper()
	ctx := context.Background()
	env := me.Env()
	tasks, machines := env.Tasks(), env.Machines()
	op := rng.Intn(7)
	if (op == 2 && tasks <= 2) || (op == 3 && machines <= 2) {
		op = 4
	}
	switch op {
	case 0: // add task
		speeds := make([]float64, machines)
		for j := range speeds {
			speeds[j] = 0.1 + rng.Float64()*10
		}
		_, warm, err := me.AddTask(ctx, "tnew", speeds)
		if err != nil {
			t.Fatalf("add task: %v", err)
		}
		return "add_task", warm
	case 1: // add machine
		speeds := make([]float64, tasks)
		for i := range speeds {
			speeds[i] = 0.1 + rng.Float64()*10
		}
		_, warm, err := me.AddMachine(ctx, "mnew", speeds)
		if err != nil {
			t.Fatalf("add machine: %v", err)
		}
		return "add_machine", warm
	case 2: // drop task
		_, warm, err := me.DropTask(ctx, rng.Intn(tasks))
		if err != nil {
			t.Fatalf("drop task: %v", err)
		}
		return "drop_task", warm
	case 3: // drop machine
		_, warm, err := me.DropMachine(ctx, rng.Intn(machines))
		if err != nil {
			t.Fatalf("drop machine: %v", err)
		}
		return "drop_machine", warm
	case 4: // cell edit
		_, warm, err := me.SetCell(ctx, rng.Intn(tasks), rng.Intn(machines), 0.1+rng.Float64()*10)
		if err != nil {
			t.Fatalf("set cell: %v", err)
		}
		return "set_cell", warm
	case 5: // task weights
		w := make([]float64, tasks)
		for i := range w {
			w[i] = 0.5 + rng.Float64()*2
		}
		_, warm, err := me.SetWeights(ctx, w, nil)
		if err != nil {
			t.Fatalf("task weights: %v", err)
		}
		return "task_weights", warm
	default: // machine weights
		w := make([]float64, machines)
		for j := range w {
			w[j] = 0.5 + rng.Float64()*2
		}
		_, warm, err := me.SetWeights(ctx, nil, w)
		if err != nil {
			t.Fatalf("machine weights: %v", err)
		}
		return "machine_weights", warm
	}
}

// coldProfileOf rebuilds the mutable env's current state as a fresh
// environment and characterizes it cold — the reference every incremental
// profile must match.
func coldProfileOf(t *testing.T, me *MutableEnv) *Profile {
	t.Helper()
	fresh, err := etcmat.NewFromECS(me.Env().ECS())
	if err != nil {
		t.Fatalf("rebuilding env: %v", err)
	}
	fresh, err = fresh.WithWeights(me.Env().TaskWeights(), me.Env().MachineWeights())
	if err != nil {
		t.Fatalf("rebuilding weights: %v", err)
	}
	// Solve at the stream tolerance so the comparison isolates seeding: at
	// sinkhorn.DefaultTol the cold iterate itself sits up to a few 1e-10
	// from the unique standard form, drowning the property being tested.
	fresh.SetStandardFormTol(StreamSolveTol)
	return Characterize(fresh)
}

// TestMutableEnvMatchesColdRecompute is the acceptance property: across
// random mutation sequences, every incrementally computed profile agrees
// with a cold characterization of the same environment to 1e-10 (Theorem 1:
// the seeded solve converges to the same unique standard form).
func TestMutableEnvMatchesColdRecompute(t *testing.T) {
	for _, seed := range []int64{901, 902, 903} {
		rng := rand.New(rand.NewSource(seed))
		me := NewMutableEnv(context.Background(), randomEnv(rng, 9, 6), 0)
		defer me.Close()
		for step := 0; step < 30; step++ {
			name, _ := applyRandomMutation(t, rng, me)
			got, want := me.Profile(), coldProfileOf(t, me)
			if got.Tasks != want.Tasks || got.Machines != want.Machines {
				t.Fatalf("seed %d step %d (%s): shape %dx%d, want %dx%d",
					seed, step, name, got.Tasks, got.Machines, want.Tasks, want.Machines)
			}
			for _, c := range []struct {
				field     string
				got, want float64
			}{
				{"MPH", got.MPH, want.MPH},
				{"TDH", got.TDH, want.TDH},
				{"TMA", got.TMA, want.TMA},
				{"RatioR", got.RatioR, want.RatioR},
				{"GeoMeanG", got.GeoMeanG, want.GeoMeanG},
				{"COV", got.COV, want.COV},
			} {
				if math.Abs(c.got-c.want) > 1e-10 {
					t.Errorf("seed %d step %d (%s): %s = %.15g, cold %.15g (Δ %.3g)",
						seed, step, name, c.field, c.got, c.want, math.Abs(c.got-c.want))
				}
			}
			if (got.TMAErr == nil) != (want.TMAErr == nil) {
				t.Errorf("seed %d step %d (%s): TMAErr mismatch: %v vs %v",
					seed, step, name, got.TMAErr, want.TMAErr)
			}
		}
		inc, rec := me.Counts()
		if inc+rec != 30 {
			t.Errorf("seed %d: counts %d+%d != 30 mutations", seed, inc, rec)
		}
		if inc == 0 {
			t.Errorf("seed %d: no mutation was served incrementally", seed)
		}
	}
}

// TestMutableEnvDropsAtFleetShape runs the structural removals at a fleet
// shape (short side >= 256): each drop is served incrementally from the
// baseline seed with the carried-over σ₂, matches a cold solve of the same
// environment to 1e-10, and needs no more Sinkhorn rounds than that solve.
func TestMutableEnvDropsAtFleetShape(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(920))
	// Log-normal speeds spanning decades make the balance take real work.
	rows := make([][]float64, 288)
	for i := range rows {
		rows[i] = make([]float64, 256)
		for j := range rows[i] {
			rows[i][j] = math.Exp(2 * rng.NormFloat64())
		}
	}
	me := NewMutableEnv(ctx, etcmat.MustFromECS(rows), 0)
	defer me.Close()
	for _, drop := range []struct {
		name string
		do   func() (*Profile, bool, error)
	}{
		{"drop_task", func() (*Profile, bool, error) { return me.DropTask(ctx, 100) }},
		{"drop_machine", func() (*Profile, bool, error) { return me.DropMachine(ctx, 17) }},
	} {
		got, warm, err := drop.do()
		if err != nil {
			t.Fatalf("%s: %v", drop.name, err)
		}
		if !warm {
			t.Errorf("%s was not served incrementally", drop.name)
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
				t.Errorf("%s: %s = %.15g, cold %.15g (Δ %.3g)",
					drop.name, c.field, c.got, c.want, math.Abs(c.got-c.want))
			}
		}
		if got.SinkhornIterations > want.SinkhornIterations {
			t.Errorf("%s: %d Sinkhorn rounds, cold solve %d",
				drop.name, got.SinkhornIterations, want.SinkhornIterations)
		}
		t.Logf("%s: %d rounds incremental, %d cold", drop.name, got.SinkhornIterations, want.SinkhornIterations)
	}
}

// TestMutableEnvDriftFallback pins the re-anchoring contract: with an
// impossibly tight tolerance every mutation recomputes cold, and with a
// huge one percent-level edits stay incremental indefinitely.
func TestMutableEnvDriftFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(910))
	ctx := context.Background()

	tight := NewMutableEnv(ctx, randomEnv(rng, 6, 5), math.SmallestNonzeroFloat64)
	defer tight.Close()
	for k := 0; k < 5; k++ {
		if _, warm, err := tight.SetCell(ctx, k%6, k%5, 0.1+rng.Float64()); err != nil {
			t.Fatal(err)
		} else if warm {
			t.Errorf("mutation %d ran warm past a zero drift tolerance", k)
		}
	}
	if inc, rec := tight.Counts(); inc != 0 || rec != 5 {
		t.Errorf("tight tolerance counts = %d/%d, want 0/5", inc, rec)
	}

	loose := NewMutableEnv(ctx, randomEnv(rng, 6, 5), 1e9)
	defer loose.Close()
	for k := 0; k < 5; k++ {
		old := loose.Env().ECSAt(k%6, k%5)
		if _, warm, err := loose.SetCell(ctx, k%6, k%5, old*1.01); err != nil {
			t.Fatal(err)
		} else if !warm {
			t.Errorf("percent-level mutation %d fell back to cold under a huge tolerance", k)
		}
	}
	if inc, rec := loose.Counts(); inc != 5 || rec != 0 {
		t.Errorf("loose tolerance counts = %d/%d, want 5/0", inc, rec)
	}
}

// TestMutableEnvRejectsInvalid pins the error contract: a rejected mutation
// leaves the environment, profile and counters untouched.
func TestMutableEnvRejectsInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	ctx := context.Background()
	me := NewMutableEnv(ctx, randomEnv(rng, 4, 3), 0)
	defer me.Close()
	before := me.Profile()
	for name, call := range map[string]func() error{
		"short add row":    func() error { _, _, err := me.AddTask(ctx, "x", []float64{1}); return err },
		"bad drop index":   func() error { _, _, err := me.DropMachine(ctx, 99); return err },
		"negative cell":    func() error { _, _, err := me.SetCell(ctx, 0, 0, -1); return err },
		"NaN cell":         func() error { _, _, err := me.SetCell(ctx, 0, 0, math.NaN()); return err },
		"zero weight":      func() error { _, _, err := me.SetWeights(ctx, []float64{0, 1, 1, 1}, nil); return err },
		"short weight vec": func() error { _, _, err := me.SetWeights(ctx, nil, []float64{1}); return err },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if me.Profile() != before {
		t.Error("a rejected mutation replaced the profile")
	}
	if inc, rec := me.Counts(); inc != 0 || rec != 0 {
		t.Errorf("rejected mutations moved the counters: %d/%d", inc, rec)
	}
}
