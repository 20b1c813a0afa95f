package dag

import (
	"testing"

	"dynasym/internal/machine"
)

// chainWithFanout builds a spine of n tasks where each spine task also
// releases f leaf tasks (leaves have no successors).
func chainWithFanout(n, f int) (*Graph, []int32) {
	g := New()
	var spine, prev []int32
	for i := 0; i < n; i++ {
		t := g.Add(Task{Label: "spine"}, prev...)
		spine = append(spine, t)
		for j := 0; j < f; j++ {
			g.Add(Task{Label: "leaf"}, t)
		}
		prev = []int32{t}
	}
	return g, spine
}

func TestInferCriticalityMarksSpine(t *testing.T) {
	g, spine := chainWithFanout(10, 3)
	_, cp := g.InferCriticality(1.0, false)
	// The longest path is the 10 spine tasks plus one leaf of the last
	// spine task.
	if cp != 11 {
		t.Fatalf("critical path = %g, want 11", cp)
	}
	for _, s := range spine {
		if !g.tasks[s].High {
			t.Fatal("spine task not marked critical")
		}
	}
	// A leaf hanging off the first spine task has huge slack and must not
	// be marked; the last spine task's leaves lie on critical paths.
	for _, l := range leavesOf(g, spine[0]) {
		if g.tasks[l].High {
			t.Fatal("slack-heavy leaf marked critical")
		}
	}
	for _, l := range leavesOf(g, spine[len(spine)-1]) {
		if !g.tasks[l].High {
			t.Fatal("critical-path leaf not marked")
		}
	}
}

// leavesOf returns the leaf successors of a spine task.
func leavesOf(g *Graph, spine int32) []int32 {
	var out []int32
	for k, p := range g.from {
		if s := g.to[k]; p == spine && g.tasks[s].Label == "leaf" {
			out = append(out, s)
		}
	}
	return out
}

func TestInferCriticalityFraction(t *testing.T) {
	strict, _ := func() (int, float64) {
		g, _ := chainWithFanout(10, 1)
		return g.InferCriticality(1.0, false)
	}()
	loose, _ := func() (int, float64) {
		g, _ := chainWithFanout(10, 1)
		return g.InferCriticality(0.5, false)
	}()
	if loose <= strict {
		t.Fatalf("fraction 0.5 marked %d tasks, strict marked %d — loosening must mark more", loose, strict)
	}
}

func TestInferCriticalityCostWeighted(t *testing.T) {
	g := New()
	// Two parallel branches: a short chain of expensive tasks and a long
	// chain of cheap ones. Cost weighting must pick the expensive branch.
	root := g.Add(Task{Label: "root", Cost: costOps(1)})
	exp := g.Add(Task{Label: "heavy", Cost: costOps(100)}, root)
	g.Add(Task{Label: "heavy2", Cost: costOps(100)}, exp)
	prev := root
	for i := 0; i < 5; i++ {
		prev = g.Add(Task{Label: "cheap", Cost: costOps(1)}, prev)
	}
	marked, cp := g.InferCriticality(1.0, true)
	if cp != 201 {
		t.Fatalf("cost-weighted critical path = %g, want 201", cp)
	}
	if marked != 3 {
		t.Fatalf("marked %d tasks, want root+heavy+heavy2", marked)
	}
	if !g.tasks[exp].High {
		t.Fatal("expensive branch not marked critical")
	}
	// The cheap chain (bottom level ≤ 6) must not be marked.
	for _, task := range g.tasks {
		if task.Label == "cheap" && task.High {
			t.Fatal("cheap chain wrongly marked critical")
		}
	}
}

func TestInferCriticalityPreservesUserFlags(t *testing.T) {
	g := New()
	a := g.Add(Task{Label: "a"})
	b := g.Add(Task{Label: "b", High: true}) // user-marked, off critical path
	g.Add(Task{Label: "c"}, a)
	g.InferCriticality(1.0, false)
	if !g.tasks[b].High {
		t.Fatal("user-marked priority was cleared")
	}
}

func TestClearPriorities(t *testing.T) {
	g := New()
	g.Add(Task{High: true})
	g.Add(Task{High: true})
	g.ClearPriorities()
	for _, task := range g.tasks {
		if task.High {
			t.Fatal("priority not cleared")
		}
	}
}

func TestInferCriticalityEmptyGraph(t *testing.T) {
	marked, cp := New().InferCriticality(1.0, false)
	if marked != 0 || cp != 0 {
		t.Fatal("empty graph inference nonzero")
	}
}

func costOps(ops float64) machine.Cost {
	return machine.Cost{Ops: ops}
}
