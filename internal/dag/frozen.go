package dag

import (
	"fmt"
	"slices"

	"dynasym/internal/ptt"
)

// Frozen is the immutable snapshot Freeze takes of a graph, and what runtimes
// execute from: the tasks as one contiguous array, the fields a scheduler's
// inner loop reads — priority, type, dependency count — as dense arrays
// indexed by task, plus the dependency structure in compressed-sparse-row
// form. Nothing writes it after Freeze returns, so one snapshot is read in
// place by every runtime of a sweep, on every worker goroutine; a run's only
// per-task state is its own copy of the dependency counts (AppendPending).
// Fields read once per execution (Cost, Iter, Label) are reached through
// Task. NewGraph and Reset are shims only the bench's kernel rows call.
type Frozen struct {
	tasks   []Task // the frozen graph's tasks, in insertion order
	high    []bool
	typ     []ptt.TypeID
	pending []int32 // dependency counts
	succOff []int32 // CSR row offsets, len(tasks)+1
	succIdx []int32 // successor task indexes, in the builder's append order
}

// isolatedFrozen gives a snapshot's slice headers cache lines of their own:
// every worker reads them on every task release, and the allocator otherwise
// packs the struct beside whatever the compiling goroutine allocates next,
// its own constantly written runtime state (see machine.isolatedModel).
type isolatedFrozen struct {
	_ [64]byte
	Frozen
	_ [64]byte
}

// Freeze snapshots the graph, stores the snapshot on it (Snapshot) and closes
// the graph to mutation. It fails only if an edge names an index outside the
// graph. Every call takes a fresh snapshot; freezing a graph other goroutines
// are already reading is a data race.
func (g *Graph) Freeze() (*Frozen, error) {
	n := len(g.tasks)
	off, idx, pending, ok := csr(n, g.from, g.to)
	if !ok {
		return nil, fmt.Errorf("dag: cannot freeze: an edge leaves the graph of %d tasks", n)
	}
	f := &new(isolatedFrozen).Frozen
	*f = Frozen{
		tasks:   g.tasks,
		high:    make([]bool, n),
		typ:     make([]ptt.TypeID, n),
		pending: pending,
		succOff: off,
		succIdx: idx,
	}
	for i := range g.tasks {
		f.high[i], f.typ[i] = g.tasks[i].High, g.tasks[i].Type
	}
	g.frozen = f
	return f, nil
}

// Task returns task i of the snapshot, for the fields it does not mirror.
// Callers must not modify it.
func (f *Frozen) Task(i int) *Task { return &f.tasks[i] }

// High reports whether task i is high priority.
func (f *Frozen) High(i int) bool { return f.high[i] }

// Type returns task i's PTT type.
func (f *Frozen) Type(i int) ptt.TypeID { return f.typ[i] }

// Succs returns the indexes of task i's successors in the builder's append
// order. The slice aliases the snapshot: callers must not modify it.
func (f *Frozen) Succs(i int) []int32 { return f.succIdx[f.succOff[i]:f.succOff[i+1]] }

// AppendPending appends every task's dependency count to dst, in insertion
// order — the one piece of graph state a run owns. The tasks whose count is
// zero are the initially ready ones.
func (f *Frozen) AppendPending(dst []int32) []int32 { return append(dst, f.pending...) }

// NewGraph materializes a fresh, independent Graph instance of the snapshot,
// frozen on it: its own copy of the tasks, and the edges in CSR order, which
// freeze back to the same successor lists and so to the same schedules.
func (f *Frozen) NewGraph() *Graph {
	g := &Graph{tasks: slices.Clone(f.tasks), to: slices.Clone(f.succIdx), frozen: f}
	for i := range f.tasks {
		for range f.Succs(i) {
			g.from = append(g.from, int32(i))
		}
	}
	return g
}

// Reset re-attaches an instance of this snapshot (or the frozen graph itself)
// to it, even if it was re-frozen in between; runtimes only read a frozen
// graph, so it then executes as before. It fails on a graph whose task count
// differs from the snapshot's (e.g. an instance of a different Frozen).
func (f *Frozen) Reset(g *Graph) error {
	if len(g.tasks) != len(f.tasks) {
		return fmt.Errorf("dag: Reset: graph has %d tasks, snapshot has %d", len(g.tasks), len(f.tasks))
	}
	g.frozen = f
	return nil
}
