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
	g.mustBeOpen("InferCriticality", tasks[0].Label)
	weight := make([]float64, len(tasks))
	for i, t := range tasks {
		weight[i] = 1
		if useCost && t.Cost.Ops > 0 {
			weight[i] = t.Cost.Ops
		}
	}
	top, _ := g.levels(weight, false)
	bottom, criticalPath := g.levels(weight, true)
	if criticalPath == 0 {
		return 0, 0 // cyclic: nothing sensible to mark
	}
	maxSlack := float64((1 - fraction) * criticalPath)
	for i := range tasks {
		slack := criticalPath - (top[i] + bottom[i] - weight[i])
		if slack <= maxSlack+1e-12 && !tasks[i].High {
			tasks[i].High = true
			marked++
		}
	}
	return marked, criticalPath
}

// ClearPriorities resets every task's High flag (useful before inference
// when user annotations should be discarded).
func (g *Graph) ClearPriorities() {
	for i := range g.tasks {
		g.mustBeOpen("ClearPriorities", g.tasks[i].Label)
		g.tasks[i].High = false
	}
}
