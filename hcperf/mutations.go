package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// The six mutation kinds core.MutableEnv accepts, by the names the
// per-layer metrics use (core.mutable_<kind>_ms).
const (
	mutSetCell     = "set_cell"
	mutAddTask     = "add_task"
	mutDropTask    = "drop_task"
	mutAddMachine  = "add_machine"
	mutDropMachine = "drop_machine"
	mutSetWeights  = "set_weights"
)

var mutKinds = []string{mutSetCell, mutAddTask, mutDropTask, mutAddMachine, mutDropMachine, mutSetWeights}

// mutation is one incremental edit. i and j address a set_cell; i alone is the
// victim of a drop; value, speeds and the weight vectors carry ECS speeds
// and weights.
type mutation struct {
	kind         string
	i, j         int
	value        float64
	speeds       []float64
	taskW, machW []float64
}

// mutGen draws a seeded mutation sequence for an environment whose shape it
// tracks, so every generated index is valid when the edits are applied in
// order. Structural edits keep the shape within a band around the opening
// one: an add at the top of the band becomes a drop and vice versa.
type mutGen struct {
	rng                    *rand.Rand
	tasks, machines        int
	minT, maxT, minM, maxM int
}

func newMutGen(seed int64, tasks, machines int) *mutGen {
	bt, bm := max(2, tasks/20), max(2, machines/20)
	return &mutGen{
		rng:   rand.New(rand.NewSource(seed)),
		tasks: tasks, machines: machines,
		minT: max(2, tasks-bt), maxT: tasks + bt,
		minM: max(2, machines-bm), maxM: machines + bm,
	}
}

// speed draws one ECS value from the range-based generator's distribution
// (ETC = τ·u with τ ~ U[1,100], u ~ U[1,10]).
func (g *mutGen) speed() float64 {
	return 1 / ((1 + 99*g.rng.Float64()) * (1 + 9*g.rng.Float64()))
}

// make builds one mutation of the given kind (or its opposite, at the edge
// of the shape band) and advances the tracked shape.
func (g *mutGen) make(kind string) mutation {
	switch {
	case kind == mutAddTask && g.tasks >= g.maxT:
		kind = mutDropTask
	case kind == mutDropTask && g.tasks <= g.minT:
		kind = mutAddTask
	case kind == mutAddMachine && g.machines >= g.maxM:
		kind = mutDropMachine
	case kind == mutDropMachine && g.machines <= g.minM:
		kind = mutAddMachine
	}
	m := mutation{kind: kind}
	switch kind {
	case mutSetCell:
		m.i, m.j, m.value = g.rng.Intn(g.tasks), g.rng.Intn(g.machines), g.speed()
	case mutAddTask:
		tau := 1 + 99*g.rng.Float64()
		m.speeds = make([]float64, g.machines)
		for j := range m.speeds {
			m.speeds[j] = 1 / (tau * (1 + 9*g.rng.Float64()))
		}
		g.tasks++
	case mutAddMachine:
		m.speeds = make([]float64, g.tasks)
		for i := range m.speeds {
			m.speeds[i] = g.speed()
		}
		g.machines++
	case mutDropTask:
		m.i = g.rng.Intn(g.tasks)
		g.tasks--
	case mutDropMachine:
		m.i = g.rng.Intn(g.machines)
		g.machines--
	case mutSetWeights:
		m.taskW, m.machW = make([]float64, g.tasks), make([]float64, g.machines)
		for i := range m.taskW {
			m.taskW[i] = 0.5 + 1.5*g.rng.Float64()
		}
		for j := range m.machW {
			m.machW[j] = 0.5 + 1.5*g.rng.Float64()
		}
	}
	return m
}

// applyMutable applies m to a live core.MutableEnv.
func applyMutable(ctx context.Context, me *core.MutableEnv, m mutation) (*core.Profile, bool, error) {
	switch m.kind {
	case mutSetCell:
		return me.SetCell(ctx, m.i, m.j, m.value)
	case mutAddTask:
		return me.AddTask(ctx, "", m.speeds)
	case mutAddMachine:
		return me.AddMachine(ctx, "", m.speeds)
	case mutDropTask:
		return me.DropTask(ctx, m.i)
	case mutDropMachine:
		return me.DropMachine(ctx, m.i)
	case mutSetWeights:
		return me.SetWeights(ctx, m.taskW, m.machW)
	}
	return nil, false, fmt.Errorf("unknown mutation kind %q", m.kind)
}
