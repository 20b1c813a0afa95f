package simrt

// Structure-of-arrays task state. Chasing a *dag.Task pointer for every
// field the scheduler's inner loop touches dominates the profile at
// scale-out core counts. The runtime therefore mirrors the fields the hot
// loop reads repeatedly — priority, type, dependency counts and the
// successor lists as a CSR — into dense slices indexed by task id (a task's
// dag ID is its insertion index), and queues pass packed int32 references
// instead of pointers, so queue storage is GC-invisible and a priority check
// is a bit test. All execution state lives here: the runtime only reads the
// dag.Graph it was started on. Fields read once per task execution (Cost,
// Iter, Label) deliberately stay on the dag.Task: mirroring them would cost
// more in copy and allocation than the single pointer access they replace.

import (
	"dynasym/internal/dag"
	"dynasym/internal/ptt"
)

// A tref is a packed task reference: task index << 1 | high-priority bit.
func makeTref(idx int, high bool) int32 {
	r := int32(idx) << 1
	if high {
		r |= 1
	}
	return r
}

// taskSoA is the dense mirror of per-task scheduling state, snapshot at
// Start.
type taskSoA struct {
	ptr  []*dag.Task
	high []bool
	typ  []ptt.TypeID
	// Dependency state: unsatisfied-predecessor counts and a CSR of
	// successor indices (succIdx[succOff[i]:succOff[i+1]]).
	pending []int32
	succOff []int32
	succIdx []int32
	// remaining counts unfinished tasks.
	remaining int
}

// resize returns sl with length n, reusing capacity. Callers overwrite
// every element, so stale values never escape.
func resize[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}

// build snapshots the graph into the mirror, reusing every slice's capacity
// so a pooled runtime rebuilds it allocation-free.
func (s *taskSoA) build(g *dag.Graph) {
	s.ptr = g.AppendTasks(s.ptr[:0])
	n := len(s.ptr)
	s.remaining = n
	s.high = resize(s.high, n)
	s.typ = resize(s.typ, n)
	edges := 0
	for i, t := range s.ptr {
		s.high[i] = t.High
		s.typ[i] = t.Type
		edges += len(t.Succs())
	}
	s.pending = resize(s.pending, n)
	s.succOff = resize(s.succOff, n+1)
	s.succIdx = resize(s.succIdx, edges)
	off := int32(0)
	for i, t := range s.ptr {
		s.succOff[i] = off
		for _, succ := range t.Succs() {
			s.succIdx[off] = int32(succ.ID())
			off++
		}
		s.pending[i] = t.PendingDeps()
	}
	s.succOff[n] = off
}
