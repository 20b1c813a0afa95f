package dag

import (
	"fmt"

	"dynasym/internal/ptt"
)

// Frozen is the immutable snapshot Freeze takes of a graph, and what runtimes
// execute from: the fields a scheduler's inner loop reads — priority, type,
// dependency count — as dense arrays indexed by task id, plus the dependency
// structure in compressed-sparse-row form. Nothing writes it after Freeze
// returns, so one snapshot is read in place by every runtime of a sweep, on
// every worker goroutine; a run's only per-task state is its own copy of the
// dependency counts (AppendPending). Fields read once per execution (Cost,
// Iter, Label) stay on the tasks, reached through Task. NewGraph and Reset
// predate the shared snapshot (they stamp out and recycle per-run instances)
// and survive only as the surface of the bench's kernel rows.
type Frozen struct {
	tasks   []*Task // the frozen graph's tasks, in id order
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
// the graph to mutation. It fails only if a task has a successor outside the
// graph. Every call takes a fresh snapshot; freezing a graph other goroutines
// are already reading is a data race.
func (g *Graph) Freeze() (*Frozen, error) {
	n, nsucc := len(g.tasks), 0
	for _, t := range g.tasks {
		nsucc += len(t.succs)
	}
	f := &new(isolatedFrozen).Frozen
	*f = Frozen{
		tasks:   g.tasks,
		high:    make([]bool, n),
		typ:     make([]ptt.TypeID, n),
		pending: make([]int32, n),
		succOff: make([]int32, n+1),
		succIdx: make([]int32, 0, nsucc),
	}
	for i, t := range g.tasks {
		f.high[i], f.typ[i], f.pending[i] = t.High, t.Type, t.pending
		f.succOff[i] = int32(len(f.succIdx))
		for _, s := range t.succs {
			j, ok := g.index(s)
			if !ok {
				return nil, fmt.Errorf("dag: cannot freeze: task %q has successor %q outside the graph", t.Label, s.Label)
			}
			f.succIdx = append(f.succIdx, int32(j))
		}
	}
	f.succOff[n] = int32(len(f.succIdx))
	g.frozen = f
	return f, nil
}

// Tasks returns the number of tasks in the snapshot.
func (f *Frozen) Tasks() int { return len(f.tasks) }

// Task returns task i of the graph the snapshot was taken of, for the fields
// the snapshot does not mirror. Callers must not modify it.
func (f *Frozen) Task(i int) *Task { return f.tasks[i] }

// High reports whether task i is high priority.
func (f *Frozen) High(i int) bool { return f.high[i] }

// Type returns task i's PTT type.
func (f *Frozen) Type(i int) ptt.TypeID { return f.typ[i] }

// Succs returns the indexes of task i's successors in the builder's append
// order. The slice aliases the snapshot: callers must not modify it.
func (f *Frozen) Succs(i int) []int32 { return f.succIdx[f.succOff[i]:f.succOff[i+1]] }

// AppendPending appends every task's dependency count to dst, in id order —
// the one piece of graph state a run owns. The tasks whose count is zero are
// the initially ready ones.
func (f *Frozen) AppendPending(dst []int32) []int32 { return append(dst, f.pending...) }

// NewGraph materializes a fresh, independent Graph instance of the
// snapshot, frozen on it. Task ids, insertion order and successor order all
// match the originally frozen graph exactly, so a runtime executing the
// instance makes bit-identical scheduling decisions. The instance costs four
// bulk allocations regardless of task count.
func (f *Frozen) NewGraph() *Graph {
	n := len(f.tasks)
	tasks := make([]Task, n)
	ptrs := make([]*Task, n)
	succs := make([]*Task, len(f.succIdx))
	for i := range tasks {
		tasks[i] = *f.tasks[i] // plain data, id and dependency count included
		tasks[i].High, tasks[i].succs = f.high[i], nil
		ptrs[i] = &tasks[i]
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
	return &Graph{tasks: ptrs, frozen: f}
}

// Reset restores the priority marks of a used (or fresh) instance of this
// snapshot to the snapshot's and re-attaches the instance to it, so the
// instance executes again exactly as before whatever rewrote its marks or
// re-froze it in between. A run leaves nothing else behind — runtimes only
// read a frozen graph. It fails if the graph does not structurally match the
// snapshot (wrong task count — e.g. an instance of a different Frozen).
func (f *Frozen) Reset(g *Graph) error {
	if len(g.tasks) != len(f.tasks) {
		return fmt.Errorf("dag: Reset: graph has %d tasks, snapshot has %d", len(g.tasks), len(f.tasks))
	}
	for i, t := range g.tasks {
		t.High = f.high[i]
	}
	g.frozen = f
	return nil
}
