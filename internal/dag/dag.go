// Package dag implements the task-graph substrate of the simulated runtime.
//
// A Graph holds moldable tasks with high/low priority and dependency edges.
// A task is plain data — a label, a type, a priority, a cost descriptor and
// an iteration tag — never code and no payload: the simulator schedules from
// the cost descriptors alone. A builder names tasks by the int32 index Add
// returns and appends edges between indexes. A graph is built up front
// (iterative applications unroll every iteration) by one goroutine and then
// frozen: Freeze takes the snapshot runtimes execute from (see Frozen) and
// closes the graph, so every mutator panics on a frozen graph. The package
// also computes the paper's DAG parallelism measure: total number of tasks
// divided by the length of the longest path.
//
// A Graph has no synchronization and needs none: a frozen graph is
// immutable, and a runtime keeps all execution state (readiness counts,
// completion) in its own arrays. One frozen graph therefore serves any number
// of runtimes on any number of goroutines at once — a sweep builds each
// workload variant once and every cell reads it.
package dag

import (
	"fmt"
	"slices"

	"dynasym/internal/machine"
	"dynasym/internal/ptt"
)

// Task is one node of the graph: plain data, copied into the graph by Add.
type Task struct {
	// Label names the task in traces and error messages.
	Label string
	// Type selects the task's Performance Trace Table.
	Type ptt.TypeID
	// High marks the task as high priority (critical). A runtime reads the
	// snapshot's marks, so ClearPriorities/InferCriticality run before
	// Freeze.
	High bool
	// Cost describes the task to the simulator's machine model.
	Cost machine.Cost
	// Iter tags the task with an application iteration for per-iteration
	// metrics; use -1 (or leave 0 for single-phase apps) when unused.
	// Metrics indexes iterations directly, so tags must be small and dense.
	Iter int
}

// Graph is a task graph under construction: the tasks in insertion order and
// the edges in append order, edge k running from task from[k] to task to[k].
// It is mutable until Freeze and immutable — safe for any number of
// concurrent readers — after it (see the package comment).
type Graph struct {
	tasks    []Task
	from, to []int32
	// frozen is the snapshot Freeze took; non-nil closes the graph.
	frozen *Frozen
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Snapshot returns the snapshot Freeze took, or nil for a graph still open.
func (g *Graph) Snapshot() *Frozen { return g.frozen }

// mustBeOpen panics when op would mutate a frozen graph: runtimes execute
// from the snapshot and would silently never see the change.
func (g *Graph) mustBeOpen(op, label string) {
	if g.frozen != nil {
		panic(fmt.Sprintf("dag: %s of task %q on a frozen graph", op, label))
	}
}

// Grow preallocates capacity for n additional tasks and m additional edges,
// so bulk builders avoid repeated slice regrowth.
func (g *Graph) Grow(n, m int) {
	g.tasks = slices.Grow(g.tasks, n)
	g.from, g.to = slices.Grow(g.from, m), slices.Grow(g.to, m)
}

// Add inserts the task with dependencies on the given predecessors and
// returns its index. It panics if the graph is frozen.
func (g *Graph) Add(t Task, deps ...int32) int32 {
	g.mustBeOpen("Add", t.Label)
	i := int32(len(g.tasks))
	g.tasks = append(g.tasks, t)
	for _, d := range deps {
		g.from, g.to = append(g.from, d), append(g.to, i)
	}
	return i
}

// AddEdge adds a dependency succ→pred between two task indexes. It panics if
// the graph is frozen; Freeze refuses an index outside the graph.
func (g *Graph) AddEdge(pred, succ int32) {
	if g.frozen != nil {
		g.mustBeOpen("AddEdge", g.tasks[succ].Label)
	}
	g.from, g.to = append(g.from, pred), append(g.to, succ)
}

// csr groups the edges by their from end with a stable counting sort: row i
// of (off, idx) lists the to ends of task i's edges in append order, and
// indeg[i] counts the edges whose to end is i. It reports false when an
// endpoint lies outside [0, n).
func csr(n int, from, to []int32) (off, idx, indeg []int32, ok bool) {
	off, indeg = make([]int32, n+1), make([]int32, n)
	for k, p := range from {
		if uint32(p) >= uint32(n) || uint32(to[k]) >= uint32(n) {
			return nil, nil, nil, false
		}
		off[p+1]++
		indeg[to[k]]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	// Fill each row through its start offset, which ends at the next row's
	// start; shifting the offsets back by one row restores them.
	idx = make([]int32, len(from))
	for k, p := range from {
		idx[off[p]] = to[k]
		off[p]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, idx, indeg, true
}

// levels returns each task's level — the heaviest path weight ending at the
// task (its top level), or with reverse set starting at it (its bottom
// level), both endpoints' weights included — and the heaviest of them: 0 for
// a cyclic graph, or one with an edge outside it.
func (g *Graph) levels(weight []float64, reverse bool) (lvl []float64, longest float64) {
	from, to := g.from, g.to
	if reverse {
		from, to = to, from
	}
	n := len(g.tasks)
	off, idx, indeg, ok := csr(n, from, to)
	if !ok {
		return nil, 0
	}
	// Kahn topological order with a longest-path DP.
	lvl = make([]float64, n)
	queue := make([]int32, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(i))
			lvl[i] = weight[i]
		}
	}
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		longest = max(longest, lvl[i])
		for _, j := range idx[off[i]:off[i+1]] {
			if l := lvl[i] + weight[j]; l > lvl[j] {
				lvl[j] = l
			}
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(queue) != n {
		return nil, 0
	}
	return lvl, longest
}

// Parallelism returns the paper's DAG parallelism measure for the graph:
// total tasks divided by the number of tasks on the longest path. An empty
// or cyclic graph has parallelism 0.
func (g *Graph) Parallelism() float64 {
	ones := slices.Repeat([]float64{1}, len(g.tasks))
	if _, longest := g.levels(ones, false); longest > 0 {
		return float64(len(ones)) / longest
	}
	return 0
}
