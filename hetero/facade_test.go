package hetero_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/hetero"
	"repro/internal/sinkhorn"
)

// Exercise every facade wrapper end to end so the public API surface stays
// wired to the internals.
func TestFacadeSurface(t *testing.T) {
	env := hetero.SPECCINT2006Rate()

	t.Run("angles", func(t *testing.T) {
		angles := hetero.ColumnAngles(env)
		if r, c := angles.Dims(); r != 5 || c != 5 {
			t.Errorf("ColumnAngles dims %dx%d", r, c)
		}
		mean := hetero.MeanColumnAngle(env)
		if mean <= 0 || mean > math.Pi/2 {
			t.Errorf("MeanColumnAngle = %g", mean)
		}
	})

	t.Run("tiling", func(t *testing.T) {
		direct, err := hetero.Standardize(env.ECS())
		if err != nil {
			t.Fatal(err)
		}
		rt, ct := sinkhorn.StandardTargets(env.Tasks(), env.Machines())
		tiled, err := sinkhorn.BalanceViaTiling(env.ECS(), sinkhorn.Options{RowTarget: rt, ColTarget: ct})
		if err != nil {
			t.Fatal(err)
		}
		diff := 0.0
		for i := 0; i < direct.Scaled.Rows(); i++ {
			for j := 0; j < direct.Scaled.Cols(); j++ {
				if d := math.Abs(direct.Scaled.At(i, j) - tiled.Scaled.At(i, j)); d > diff {
					diff = d
				}
			}
		}
		if diff > 1e-6 {
			t.Errorf("tiling and direct standard forms differ by %g", diff)
		}
	})

	t.Run("affinity groups", func(t *testing.T) {
		g, err := hetero.FindAffinityGroups(env, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.MachineGroup) != env.Machines() || len(g.TaskGroup) != env.Tasks() {
			t.Errorf("group lengths wrong: %d/%d", len(g.MachineGroup), len(g.TaskGroup))
		}
	})

	t.Run("consistency", func(t *testing.T) {
		cons, err := hetero.WithConsistency(env, hetero.Consistent)
		if err != nil {
			t.Fatal(err)
		}
		if !hetero.IsConsistent(cons) {
			t.Error("WithConsistency(Consistent) not consistent")
		}
		if hetero.IsConsistent(env) {
			t.Skip("calibrated dataset unexpectedly consistent")
		}
		same, err := hetero.WithConsistency(env, hetero.Inconsistent)
		if err != nil || same != env {
			t.Errorf("Inconsistent should be a no-op: %v", err)
		}
	})

	t.Run("leave one out", func(t *testing.T) {
		base, deltas := hetero.LeaveOneOut(env)
		if base.TMAErr != nil {
			t.Fatal(base.TMAErr)
		}
		if len(deltas) != env.Tasks()+env.Machines() {
			t.Errorf("got %d deltas", len(deltas))
		}
	})

	t.Run("sensitivities", func(t *testing.T) {
		small, err := hetero.FromECS([][]float64{{1, 2}, {3, 1}})
		if err != nil {
			t.Fatal(err)
		}
		s, err := hetero.Sensitivities(small, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s.DMPH.Sum()) > 1e-4 {
			t.Errorf("MPH gradient not null along scaling: %g", s.DMPH.Sum())
		}
	})

	t.Run("search heuristics", func(t *testing.T) {
		hs := hetero.SearchHeuristics(3)
		if len(hs) != 2 {
			t.Fatalf("got %d search heuristics", len(hs))
		}
		in, err := hetero.Workload(env, 2, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			s, err := h.Map(in)
			if err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			if s.Makespan <= 0 {
				t.Errorf("%s makespan %g", h.Name(), s.Makespan)
			}
			if im := s.Imbalance(); im < 0 || im >= 1 {
				t.Errorf("%s imbalance %g", h.Name(), im)
			}
			r, err := hetero.RobustnessRadius(in, s, 1.2)
			if err != nil {
				t.Fatalf("%s robustness: %v", h.Name(), err)
			}
			if r.Min < 0 {
				t.Errorf("%s robustness %g", h.Name(), r.Min)
			}
		}
	})

	t.Run("dynamic simulation", func(t *testing.T) {
		w, err := hetero.PoissonWorkload(env, 100, 0.01, rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range hetero.DynamicPolicies() {
			res, err := hetero.Simulate(env, w, p, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if res.Completed != 100 {
				t.Errorf("%s completed %d", p.Name(), res.Completed)
			}
		}
		batch, err := hetero.SimulateBatch(env, w, 100, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		if batch.Completed != 100 || batch.MappingEvents < 1 {
			t.Errorf("batch: completed %d, events %d", batch.Completed, batch.MappingEvents)
		}
	})

	t.Run("cluster ring", func(t *testing.T) {
		ring := hetero.NewRing(2, 0)
		for _, n := range []string{"a:1", "b:1", "c:1"} {
			ring.Add(n)
		}
		owners := hetero.EnvOwners(ring, env)
		if len(owners) != 2 {
			t.Fatalf("EnvOwners returned %d nodes, want R=2", len(owners))
		}
		if owners[0] == owners[1] {
			t.Errorf("replica set has duplicate node %q", owners[0])
		}
		before := owners[0]
		// Removing a non-owner must not move the primary (consistent hashing).
		for _, n := range []string{"a:1", "b:1", "c:1"} {
			if n != owners[0] && n != owners[1] {
				ring.Remove(n)
			}
		}
		if got := hetero.EnvOwners(ring, env)[0]; got != before {
			t.Errorf("primary moved from %q to %q on unrelated removal", before, got)
		}
	})

	t.Run("cluster churn", func(t *testing.T) {
		mkRing := func(nodes ...string) *hetero.Ring {
			r := hetero.NewRing(2, 0)
			for _, n := range nodes {
				r.Add(n)
			}
			return r
		}
		beforeRing := mkRing("a:1", "b:1", "c:1")
		afterRing := mkRing("a:1", "b:1", "c:1", "d:1")
		fresh := hetero.EnvNewOwners(beforeRing, afterRing, env)
		owners := hetero.EnvOwners(afterRing, env)
		for _, f := range fresh {
			found := false
			for _, o := range owners {
				if o == f {
					found = true
				}
			}
			if !found {
				t.Errorf("fresh owner %q is not an owner on the after ring", f)
			}
			for _, o := range hetero.EnvOwners(beforeRing, env) {
				if o == f {
					t.Errorf("fresh owner %q already owned env before the change", f)
				}
			}
		}
		if got := hetero.EnvNewOwners(beforeRing, beforeRing, env); got != nil {
			t.Errorf("unchanged ring reported fresh owners %v", got)
		}
	})
}
