package dag

// Criticality inference: the paper relies on user-specified priorities and
// notes that "criticality can also be inferred dynamically by the runtime
// system [CATS]" but leaves that out of scope. This extension provides the
// static variant used by CATS-family schedulers, based on path slack:
// a task lies on a critical path exactly when its top level (longest path
// from any entry up to and including the task) plus its bottom level
// (longest path from the task to any exit) minus its own weight equals the
// critical-path length; tasks with small slack are near-critical.
//
// It operates on a graph before Freeze.

// InferCriticality marks as high priority every task whose path slack is at
// most (1-fraction) of the critical-path length: fraction 1 marks exactly
// the critical-path tasks, fraction 0.8 also marks tasks within 20% slack.
// Task weights are Cost.Ops when useCost is set (unset costs weigh 1), or
// uniformly 1 otherwise. It returns the number of newly marked tasks and
// the critical-path length in the chosen weight.
//
// Existing High flags are preserved (the union is taken), matching how a
// runtime would refine user annotations rather than discard them.
func (g *Graph) InferCriticality(fraction float64, useCost bool) (marked int, criticalPath float64) {
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	tasks := g.tasks
	if len(tasks) == 0 {
		return 0, 0
	}
	g.mustBeOpen("InferCriticality", tasks[0])
	weight := func(t *Task) float64 {
		if useCost && t.Cost.Ops > 0 {
			return t.Cost.Ops
		}
		return 1
	}
	preds := make([][]int, len(tasks))
	outdeg := make([]int, len(tasks))
	indeg := make([]int, len(tasks))
	for i, t := range tasks {
		outdeg[i] = len(t.succs)
		for _, s := range t.succs {
			j, ok := g.index(s)
			if !ok {
				return 0, 0 // a successor outside the graph: nothing sensible to mark
			}
			preds[j] = append(preds[j], i)
			indeg[j]++
		}
	}

	// Bottom levels: reverse-topological DP (Kahn on out-degrees).
	bottom := make([]float64, len(tasks))
	queue := make([]int, 0, len(tasks))
	for i, d := range outdeg {
		if d == 0 {
			queue = append(queue, i)
			bottom[i] = weight(tasks[i])
		}
	}
	processed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		processed++
		for _, p := range preds[i] {
			if b := bottom[i] + weight(tasks[p]); b > bottom[p] {
				bottom[p] = b
			}
			outdeg[p]--
			if outdeg[p] == 0 {
				queue = append(queue, p)
			}
		}
	}
	if processed != len(tasks) {
		return 0, 0 // cyclic: nothing sensible to mark
	}

	// Top levels: forward-topological DP.
	top := make([]float64, len(tasks))
	queue = queue[:0]
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
			top[i] = weight(tasks[i])
		}
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, s := range tasks[i].succs {
			j := int(s.id)
			if tl := top[i] + weight(tasks[j]); tl > top[j] {
				top[j] = tl
			}
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}

	for _, b := range bottom {
		if b > criticalPath {
			criticalPath = b
		}
	}
	maxSlack := (1 - fraction) * criticalPath
	for i, t := range tasks {
		slack := criticalPath - (top[i] + bottom[i] - weight(t))
		if slack <= maxSlack+1e-12 && !t.High {
			t.High = true
			marked++
		}
	}
	return marked, criticalPath
}

// ClearPriorities resets every task's High flag (useful before inference
// when user annotations should be discarded).
func (g *Graph) ClearPriorities() {
	for _, t := range g.tasks {
		g.mustBeOpen("ClearPriorities", t)
		t.High = false
	}
}
