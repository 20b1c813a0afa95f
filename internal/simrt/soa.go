package simrt

// Structure-of-arrays task state. Chasing a *dag.Task pointer for every
// field the scheduler's inner loop touches, and allocating a ready list per
// completion in dag.Complete, dominate the profile at scale-out core
// counts. The runtime therefore mirrors the fields the hot loop reads
// repeatedly into dense slices indexed by task id (a task's dag ID
// is its insertion index), and queues pass packed int32 references instead
// of pointers, so queue storage is GC-invisible and a priority check is a
// bit test. Fields read once per task execution (Cost, Iter, Label, Body)
// deliberately stay on the dag.Task: mirroring them would cost more in
// copy and allocation than the single pointer access they replace.

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

// taskSoA is the dense mirror of per-task scheduling state.
type taskSoA struct {
	// static is set when the graph provably cannot change mid-run: no task
	// has a completion hook and no exec hook is installed. In static mode
	// completion runs over the CSR below — no per-ready allocation, no
	// per-task state transitions — and the dag.Graph is finalized once in
	// bulk when the last task drains (Graph.MarkDrained). In
	// dynamic mode completion defers to Graph.Complete and the mirror
	// grows lazily as hooks insert tasks.
	static bool
	ptr    []*dag.Task
	high   []bool
	typ    []ptt.TypeID
	// Static-mode dependency state, snapshot at Start: pending counts and
	// a CSR of successor indices (succIdx[succOff[i]:succOff[i+1]]).
	pending []int32
	succOff []int32
	succIdx []int32
	// remaining counts unfinished tasks in static mode; total is the task
	// count at Start, used to detect mid-run graph mutation.
	remaining int
	total     int
}

// resize returns sl with length n, reusing capacity. Callers overwrite
// every element, so stale values never escape.
func resize[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}

// build (re)populates the mirror from the tasks already snapshot into
// s.ptr, reusing every slice's capacity so a pooled runtime rebuilds it
// allocation-free.
func (s *taskSoA) build(static bool) {
	n := len(s.ptr)
	s.static = static
	s.total = n
	s.remaining = n
	s.high = resize(s.high, n)
	s.typ = resize(s.typ, n)
	for i, t := range s.ptr {
		s.high[i] = t.High
		s.typ[i] = t.Type
	}
	if !static {
		// Dynamic graphs keep readiness in the graph itself; the CSR would
		// go stale as hooks add edges.
		s.pending = s.pending[:0]
		s.succOff = s.succOff[:0]
		s.succIdx = s.succIdx[:0]
		return
	}
	edges := 0
	for _, t := range s.ptr {
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

// buildSoA snapshots the graph into the runtime's task mirror and decides
// whether the static fast path applies.
func (rt *Runtime) buildSoA(g *dag.Graph) {
	rt.soa.ptr = g.AppendTasks(rt.soa.ptr[:0], 0)
	static := rt.cfg.Hook == nil
	if static {
		for _, t := range rt.soa.ptr {
			if t.OnComplete != nil {
				static = false
				break
			}
		}
	}
	rt.soa.build(static)
}

// tref returns the packed reference for a task, growing the mirror when
// completion hooks inserted tasks the snapshot has not seen (graph IDs are
// insertion-ordered, so appending the graph's tail catches the mirror up).
func (rt *Runtime) tref(t *dag.Task) int32 {
	idx := int(t.ID())
	s := &rt.soa
	if idx >= len(s.ptr) {
		from := len(s.ptr)
		s.ptr = rt.graph.AppendTasks(s.ptr, from)
		for _, nt := range s.ptr[from:] {
			s.high = append(s.high, nt.High)
			s.typ = append(s.typ, nt.Type)
		}
	}
	return makeTref(idx, s.high[idx])
}
