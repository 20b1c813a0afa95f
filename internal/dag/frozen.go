package dag

import (
	"fmt"

	"dynasym/internal/machine"
	"dynasym/internal/ptt"
)

// Frozen is an immutable snapshot of a graph: the per-task fields runtimes
// read plus the dependency structure in compressed-sparse-row form. One
// Frozen can stamp out any number of independent Graph instances (NewGraph)
// and restore a used instance to its pre-Start state (Reset), so grid sweeps
// build the workload once and pay a few bulk allocations — or, with Reset,
// none at all — per cell instead of re-running the builder. Every field of a
// task is plain data, so any unstarted graph freezes.
type Frozen struct {
	protos  []frozenTask
	succOff []int32 // CSR row offsets, len(protos)+1
	succIdx []int32 // successor task indexes, in the builder's append order
}

// frozenTask is the immutable per-task snapshot. pending is the dependency
// count.
type frozenTask struct {
	label   string
	typ     ptt.TypeID
	high    bool
	iter    int
	cost    machine.Cost
	pending int32
}

// Freeze snapshots the graph. It fails only if the graph already started or
// a task has a successor outside the graph.
func (g *Graph) Freeze() (*Frozen, error) {
	if g.started {
		return nil, fmt.Errorf("dag: cannot freeze a started graph")
	}
	n := len(g.tasks)
	index := make(map[*Task]int32, n)
	for i, t := range g.tasks {
		index[t] = int32(i)
	}
	f := &Frozen{
		protos:  make([]frozenTask, n),
		succOff: make([]int32, n+1),
	}
	nsucc := 0
	for i, t := range g.tasks {
		f.protos[i] = frozenTask{
			label:   t.Label,
			typ:     t.Type,
			high:    t.High,
			iter:    t.Iter,
			cost:    t.Cost,
			pending: t.pending,
		}
		nsucc += len(t.succs)
	}
	f.succIdx = make([]int32, 0, nsucc)
	for i, t := range g.tasks {
		f.succOff[i] = int32(len(f.succIdx))
		for _, s := range t.succs {
			j, ok := index[s]
			if !ok {
				return nil, fmt.Errorf("dag: cannot freeze: task %q has successor %q outside the graph", t.Label, s.Label)
			}
			f.succIdx = append(f.succIdx, j)
		}
	}
	f.succOff[n] = int32(len(f.succIdx))
	return f, nil
}

// Tasks returns the number of tasks in the snapshot.
func (f *Frozen) Tasks() int { return len(f.protos) }

// NewGraph materializes a fresh, independent Graph instance of the
// snapshot. Task ids, insertion order and successor order all match the
// originally frozen graph exactly, so a runtime executing the instance
// makes bit-identical scheduling decisions. The instance costs four bulk
// allocations regardless of task count.
func (f *Frozen) NewGraph() *Graph {
	n := len(f.protos)
	tasks := make([]Task, n)
	ptrs := make([]*Task, n)
	succs := make([]*Task, len(f.succIdx))
	for i := range tasks {
		p := &f.protos[i]
		t := &tasks[i]
		t.Label = p.label
		t.Type = p.typ
		t.High = p.high
		t.Iter = p.iter
		t.Cost = p.cost
		t.id = int64(i)
		t.pending = p.pending
		ptrs[i] = t
	}
	for i := range tasks {
		lo, hi := f.succOff[i], f.succOff[i+1]
		if lo == hi {
			continue
		}
		// Full-slice expression: each task's successor list is a private
		// window of the shared backing array and can never grow into its
		// neighbor's.
		s := succs[lo:lo:hi]
		for _, j := range f.succIdx[lo:hi] {
			s = append(s, ptrs[j])
		}
		tasks[i].succs = s
	}
	return &Graph{tasks: ptrs}
}

// Reset restores a used (or fresh) instance of this snapshot to its
// pre-Start state, so the instance can execute again: the priority marks
// (which criticality passes may rewrite between runs) are restored and the
// graph reopens. A run leaves nothing else behind — runtimes only read a
// started graph. It fails if the graph does not structurally match the
// snapshot (wrong task count — e.g. an instance of a different Frozen).
func (f *Frozen) Reset(g *Graph) error {
	if len(g.tasks) != len(f.protos) {
		return fmt.Errorf("dag: Reset: graph has %d tasks, snapshot has %d", len(g.tasks), len(f.protos))
	}
	for i, t := range g.tasks {
		t.High = f.protos[i].high
	}
	g.started = false
	return nil
}
