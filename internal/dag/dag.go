// Package dag implements the task-graph substrate of the simulated runtime.
//
// A Graph holds moldable tasks with high/low priority, dependency edges and
// optional completion hooks that may insert new tasks while the graph is
// executing (the paper's "dynamic DAG" — iterative applications unroll one
// iteration at a time). The package also computes the paper's DAG
// parallelism measure: total number of tasks divided by the length of the
// longest path.
//
// A Graph and its Tasks are plain data with no synchronization: one graph
// instance is built by one goroutine and then executed by one runtime, on
// the event engine's goroutine, completion hooks included. Concurrent cells
// each run their own instance (see Frozen for stamping them out).
package dag

import (
	"fmt"

	"dynasym/internal/machine"
	"dynasym/internal/ptt"
)

// State tracks a task's lifecycle; runtimes advance it and assert on it.
type State int32

// Task lifecycle states.
const (
	Created State = iota // inserted, dependencies outstanding
	Ready                // all dependencies satisfied, queued
	Running              // executing on its place
	Done                 // finished
)

// Exec describes one member's share of a moldable execution to a task
// body: the body must perform partition Part of Width.
type Exec struct {
	// Part is this member's index in [0, Width).
	Part int
	// Width is the resource width of the place executing the task.
	Width int
	// Leader is the core id of the place leader.
	Leader int
	// Worker is the core id executing this partition.
	Worker int
}

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
	// before Start, which satisfies this.)
	High bool
	// Cost describes the task to the simulator's machine model.
	Cost machine.Cost
	// Body, if non-nil, is executed by runtimes configured to run bodies
	// (simrt.Config.RunBodies): every member of the place calls Body with
	// its partition, the members of one task concurrently.
	Body func(Exec)
	// OnComplete, if non-nil, runs exactly once after the task finishes
	// and before its successors are released; it may add tasks and edges
	// (dynamic DAG). It runs on the completing worker.
	OnComplete func(g *Graph, t *Task)
	// Iter tags the task with an application iteration for per-iteration
	// metrics; use -1 (or leave 0 for single-phase apps) when unused.
	// Small, dense iteration numbers aggregate fastest (metrics indexes
	// them directly); sparse tags work but fall back to a map.
	Iter int
	// Data carries workload-specific payload (e.g. the communication
	// endpoints of a distributed boundary-exchange task). The runtimes
	// never interpret it; execution hooks may.
	Data any

	id      int64
	pending int32
	state   State
	succs   []*Task
}

// ID returns the task's graph-assigned identifier (its insertion index).
func (t *Task) ID() int64 { return t.id }

// Succs returns the task's current successor list. The returned slice
// aliases graph state: callers must not modify it and should read it only
// while the graph is quiescent (simrt snapshots it before execution).
func (t *Task) Succs() []*Task { return t.succs }

// PendingDeps returns the task's current unsatisfied-dependency count.
func (t *Task) PendingDeps() int32 { return t.pending }

// State returns the task's current lifecycle state.
func (t *Task) State() State { return t.state }

// setState transitions the task, panicking on an illegal transition; the
// runtimes are the only callers.
func (t *Task) setState(from, to State) {
	if t.state != from {
		panic(fmt.Sprintf("dag: task %q (id %d) illegal transition %d->%d from %d",
			t.Label, t.id, from, to, t.state))
	}
	t.state = to
}

// MarkReady transitions Created→Ready (called by the graph).
func (t *Task) MarkReady() { t.setState(Created, Ready) }

// MarkRunning transitions Ready→Running (called by runtimes at dispatch).
func (t *Task) MarkRunning() { t.setState(Ready, Running) }

// Graph is a mutable task graph. It is not safe for concurrent use (see the
// package comment).
type Graph struct {
	tasks       []*Task
	started     bool
	outstanding int64
	// readyBuf collects tasks that became ready outside a Complete call
	// (roots added dynamically by completion hooks); Complete drains it.
	readyBuf []*Task
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddLayer adds a batch of tasks that all depend on the same single
// predecessor (nil for none) — the shape of the synthetic layered DAGs — in
// one pass. It is equivalent to calling Add(t, dep) for each task in order.
func (g *Graph) AddLayer(tasks []*Task, dep *Task) {
	if len(tasks) == 0 {
		return
	}
	base := int64(len(g.tasks))
	g.tasks = append(g.tasks, tasks...)
	g.outstanding += int64(len(tasks))
	depOpen := dep != nil && dep.State() != Done
	if depOpen && cap(dep.succs)-len(dep.succs) < len(tasks) {
		grown := make([]*Task, len(dep.succs), len(dep.succs)+len(tasks))
		copy(grown, dep.succs)
		dep.succs = grown
	}
	for i, t := range tasks {
		t.id = base + int64(i)
		if depOpen {
			dep.succs = append(dep.succs, t)
			t.pending++
		}
		if g.started && t.pending == 0 {
			t.MarkReady()
			g.readyBuf = append(g.readyBuf, t)
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
// returns it. Predecessors that already completed do not block the task.
// Adding a task after Start is allowed (dynamic DAG); if it is immediately
// ready it will be handed to the runtime with the next Complete result.
func (g *Graph) Add(t *Task, deps ...*Task) *Task {
	if t == nil {
		panic("dag: Add(nil)")
	}
	t.id = int64(len(g.tasks))
	g.tasks = append(g.tasks, t)
	g.outstanding++
	for _, d := range deps {
		if d.State() != Done {
			d.succs = append(d.succs, t)
			t.pending++
		}
	}
	if g.started && t.pending == 0 {
		t.MarkReady()
		g.readyBuf = append(g.readyBuf, t)
	}
	return t
}

// AddEdge adds a dependency succ→pred after both tasks exist. If pred is
// already Done the edge is a no-op. It panics if succ already started.
func (g *Graph) AddEdge(pred, succ *Task) {
	if succ.State() != Created {
		panic(fmt.Sprintf("dag: AddEdge to task %q which already started", succ.Label))
	}
	if pred.State() == Done {
		return
	}
	pred.succs = append(pred.succs, succ)
	succ.pending++
}

// Start freezes the initial graph and returns the initially ready tasks in
// insertion order. It must be called exactly once, by the runtime, before
// execution.
func (g *Graph) Start() []*Task {
	if g.started {
		panic("dag: Start called twice")
	}
	g.started = true
	var ready []*Task
	for _, t := range g.tasks {
		if t.pending == 0 {
			t.MarkReady()
			ready = append(ready, t)
		}
	}
	return ready
}

// Complete marks t finished, runs its completion hook, and returns the
// tasks that became ready as a result (successors whose last dependency was
// t, plus any ready tasks inserted by hooks since the previous Complete).
// The second result is true when the whole graph has drained.
func (g *Graph) Complete(t *Task) (newlyReady []*Task, drained bool) {
	t.setState(Running, Done)
	if t.OnComplete != nil {
		t.OnComplete(g, t)
	}
	for _, s := range t.succs {
		if s.pending--; s.pending == 0 {
			s.MarkReady()
			if newlyReady == nil {
				// One exact-capacity allocation on the first ready
				// successor; completions that ready nothing allocate
				// nothing.
				newlyReady = make([]*Task, 0, len(t.succs))
			}
			newlyReady = append(newlyReady, s)
		}
	}
	if len(g.readyBuf) > 0 {
		newlyReady = append(newlyReady, g.readyBuf...)
		g.readyBuf = g.readyBuf[:0]
	}
	g.outstanding--
	return newlyReady, g.outstanding == 0
}

// Outstanding returns the number of incomplete tasks.
func (g *Graph) Outstanding() int64 { return g.outstanding }

// Total returns the number of tasks ever added.
func (g *Graph) Total() int64 { return int64(len(g.tasks)) }

// Tasks returns a snapshot of all tasks in insertion order.
func (g *Graph) Tasks() []*Task {
	return append([]*Task(nil), g.tasks...)
}

// AppendTasks appends the tasks with insertion index ≥ from to dst in
// order, reusing dst's capacity. Runtimes use it to snapshot the graph
// (from = 0) and to catch their task mirrors up after dynamic insertions
// without allocating a fresh slice per call.
func (g *Graph) AppendTasks(dst []*Task, from int) []*Task {
	if from < 0 {
		from = 0
	}
	if from >= len(g.tasks) {
		return dst
	}
	return append(dst, g.tasks[from:]...)
}

// MarkDrained finalizes a graph whose execution was tracked outside the
// graph (simrt's static fast path keeps readiness counts in its own dense
// arrays): every task is stored Done with no pending dependencies and the
// outstanding count drops to zero — exactly the state the equivalent
// sequence of Complete calls would have left. It must only be called when
// every task has in fact executed.
func (g *Graph) MarkDrained() {
	for _, t := range g.tasks {
		t.pending = 0
		t.state = Done
	}
	g.outstanding = 0
}

// Validate checks that the graph (as currently constructed) is acyclic and
// that every edge endpoint belongs to the graph. It is intended for static
// graphs before Start.
func (g *Graph) Validate() error {
	tasks := g.tasks
	index := make(map[*Task]int, len(tasks))
	for i, t := range tasks {
		index[t] = i
	}
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
				j, ok := index[s]
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

// Parallelism returns the paper's DAG parallelism measure for the current
// static graph: total tasks divided by the number of tasks on the longest
// path. An empty graph has parallelism 0.
func (g *Graph) Parallelism() float64 {
	tasks := g.tasks
	if len(tasks) == 0 {
		return 0
	}
	index := make(map[*Task]int, len(tasks))
	for i, t := range tasks {
		index[t] = i
	}
	indeg := make([]int, len(tasks))
	for _, t := range tasks {
		for _, s := range t.succs {
			indeg[index[s]]++
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
			j := index[s]
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
