// Package dag implements the task-graph substrate of the simulated runtime.
//
// A Graph holds moldable tasks with high/low priority and dependency edges.
// A task is plain data — a label, a type, a priority, a cost descriptor and
// an iteration tag — never code and no payload: the simulator schedules from
// the cost descriptors alone. A graph is built up front (iterative
// applications unroll every iteration) by one goroutine and then frozen:
// Freeze takes the snapshot runtimes execute from (see Frozen) and closes the
// graph, so every mutator panics on a frozen graph. The package also computes
// the paper's DAG parallelism measure: total number of tasks divided by the
// length of the longest path.
//
// A Graph and its Tasks have no synchronization and need none: a frozen graph
// is immutable, and a runtime keeps all execution state (readiness counts,
// completion) in its own arrays. One frozen graph therefore serves any number
// of runtimes on any number of goroutines at once — a sweep builds each
// workload variant once and every cell reads it.
package dag

import (
	"fmt"

	"dynasym/internal/machine"
	"dynasym/internal/ptt"
)

// Task is one node of the graph. Exported fields are set by the creator
// before Add and read-only afterwards.
type Task struct {
	// Label names the task in traces and error messages.
	Label string
	// Type selects the task's Performance Trace Table.
	Type ptt.TypeID
	// High marks the task as high priority (critical). It must not
	// change while the task is queued in a runtime: the simulated
	// runtime's deque counters and stealable-work bitmaps classify a
	// task once at enqueue time. (ClearPriorities/InferCriticality run
	// before Freeze, and a runtime reads the snapshot's marks.)
	High bool
	// Cost describes the task to the simulator's machine model.
	Cost machine.Cost
	// Iter tags the task with an application iteration for per-iteration
	// metrics; use -1 (or leave 0 for single-phase apps) when unused.
	// Small, dense iteration numbers aggregate fastest (metrics indexes
	// them directly); sparse tags work but fall back to a map.
	Iter int

	id      int64
	pending int32
	succs   []*Task
}

// ID returns the task's graph-assigned identifier (its insertion index).
func (t *Task) ID() int64 { return t.id }

// Succs returns the task's successor list. The returned slice aliases graph
// state: callers must not modify it.
func (t *Task) Succs() []*Task { return t.succs }

// PendingDeps returns the task's dependency count.
func (t *Task) PendingDeps() int32 { return t.pending }

// Graph is a task graph, mutable until Freeze and immutable — safe for any
// number of concurrent readers — after it (see the package comment).
type Graph struct {
	tasks []*Task
	// frozen is the snapshot Freeze took; non-nil closes the graph.
	frozen *Frozen
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Snapshot returns the snapshot Freeze took, or nil for a graph still open.
func (g *Graph) Snapshot() *Frozen { return g.frozen }

// mustBeOpen panics when op would mutate a frozen graph: runtimes execute
// from the snapshot and would silently never see the change.
func (g *Graph) mustBeOpen(op string, t *Task) {
	if g.frozen != nil {
		panic(fmt.Sprintf("dag: %s of task %q on a frozen graph", op, t.Label))
	}
}

// index returns t's position in the graph — a task's id is its insertion
// index — and whether t belongs to this graph at all.
func (g *Graph) index(t *Task) (int, bool) {
	i := int(t.id)
	return i, i < len(g.tasks) && g.tasks[i] == t
}

// AddLayer adds a batch of tasks that all depend on the same single
// predecessor (nil for none) — the shape of the synthetic layered DAGs — in
// one pass. It is equivalent to calling Add(t, dep) for each task in order.
func (g *Graph) AddLayer(tasks []*Task, dep *Task) {
	if len(tasks) == 0 {
		return
	}
	g.mustBeOpen("AddLayer", tasks[0])
	base := int64(len(g.tasks))
	g.tasks = append(g.tasks, tasks...)
	if dep != nil && cap(dep.succs)-len(dep.succs) < len(tasks) {
		grown := make([]*Task, len(dep.succs), len(dep.succs)+len(tasks))
		copy(grown, dep.succs)
		dep.succs = grown
	}
	for i, t := range tasks {
		t.id = base + int64(i)
		if dep != nil {
			dep.succs = append(dep.succs, t)
			t.pending++
		}
	}
}

// Grow preallocates capacity for n additional tasks, so bulk builders
// (synthetic layered DAGs, iteration graphs) avoid repeated slice regrowth.
func (g *Graph) Grow(n int) {
	if cap(g.tasks)-len(g.tasks) < n {
		grown := make([]*Task, len(g.tasks), len(g.tasks)+n)
		copy(grown, g.tasks)
		g.tasks = grown
	}
}

// Add inserts the task with dependencies on the given predecessors and
// returns it. It panics if the graph is frozen.
func (g *Graph) Add(t *Task, deps ...*Task) *Task {
	if t == nil {
		panic("dag: Add(nil)")
	}
	g.mustBeOpen("Add", t)
	t.id = int64(len(g.tasks))
	g.tasks = append(g.tasks, t)
	for _, d := range deps {
		d.succs = append(d.succs, t)
		t.pending++
	}
	return t
}

// AddEdge adds a dependency succ→pred after both tasks exist. It panics if
// the graph is frozen.
func (g *Graph) AddEdge(pred, succ *Task) {
	g.mustBeOpen("AddEdge", succ)
	pred.succs = append(pred.succs, succ)
	succ.pending++
}

// Total returns the number of tasks in the graph.
func (g *Graph) Total() int64 { return int64(len(g.tasks)) }

// Tasks returns a snapshot of all tasks in insertion order.
func (g *Graph) Tasks() []*Task {
	return append([]*Task(nil), g.tasks...)
}

// Validate checks that the graph is acyclic and that every edge endpoint
// belongs to the graph.
func (g *Graph) Validate() error {
	tasks := g.tasks
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	color := make([]int8, len(tasks))
	// Iterative DFS to survive deep chains (synthetic DAGs have tens of
	// thousands of layers).
	type frame struct {
		node int
		next int
	}
	for start := range tasks {
		if color[start] != unvisited {
			continue
		}
		stack := []frame{{node: start}}
		color[start] = onStack
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			succs := tasks[f.node].succs
			if f.next < len(succs) {
				s := succs[f.next]
				f.next++
				j, ok := g.index(s)
				if !ok {
					return fmt.Errorf("dag: task %q has successor %q outside the graph", tasks[f.node].Label, s.Label)
				}
				switch color[j] {
				case onStack:
					return fmt.Errorf("dag: cycle through %q and %q", tasks[f.node].Label, s.Label)
				case unvisited:
					color[j] = onStack
					stack = append(stack, frame{node: j})
				}
				continue
			}
			color[f.node] = done
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// Parallelism returns the paper's DAG parallelism measure for the graph:
// total tasks divided by the number of tasks on the longest path. An empty
// graph has parallelism 0.
func (g *Graph) Parallelism() float64 {
	tasks := g.tasks
	if len(tasks) == 0 {
		return 0
	}
	indeg := make([]int, len(tasks))
	for _, t := range tasks {
		for _, s := range t.succs {
			j, ok := g.index(s)
			if !ok {
				return 0 // a successor outside the graph: no meaningful parallelism
			}
			indeg[j]++
		}
	}
	// Kahn topological order with longest-path DP (length counted in
	// tasks, so a single task has path length 1).
	depth := make([]int, len(tasks))
	queue := make([]int, 0, len(tasks))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
			depth[i] = 1
		}
	}
	longest := 0
	processed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		processed++
		if depth[i] > longest {
			longest = depth[i]
		}
		for _, s := range tasks[i].succs {
			j := int(s.id)
			if d := depth[i] + 1; d > depth[j] {
				depth[j] = d
			}
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if processed != len(tasks) || longest == 0 {
		return 0 // cyclic graphs have no meaningful parallelism
	}
	return float64(len(tasks)) / float64(longest)
}
