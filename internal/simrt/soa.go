package simrt

// Dense task state. A task is its insertion index in the graph, and the
// scheduler's inner loop reads dense arrays indexed by it — priority, type,
// the successor lists as a CSR — instead of chasing a pointer per task, which
// dominated the profile at scale-out core counts. Queues pass packed int32
// references instead of pointers: queue storage is GC-invisible and a
// priority check is a bit test. Those arrays are the graph's own snapshot
// (dag.Frozen), read in place and shared with every other runtime executing
// the graph; Cost, Iter and Label, read once per execution, are reached
// through its contiguous task array (Frozen.Task). A run owns only its copy
// of the dependency counts (Runtime.pending), and never writes the graph.

// A tref is a packed task reference: task index << 1 | high-priority bit.
func makeTref(idx int, high bool) int32 {
	r := int32(idx) << 1
	if high {
		r |= 1
	}
	return r
}
