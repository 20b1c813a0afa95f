package dag

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// walker releases successors the way a runtime does — from its own copy of
// the snapshot's dependency counts, leaving the frozen graph untouched.
type walker struct {
	pending []int32
	left    int
}

// walk returns a walker over the frozen graph's snapshot plus g's initially
// ready tasks — the zero dependency counts, in insertion order.
func walk(g *Graph) (w *walker, ready []*Task) {
	fz := g.Snapshot()
	w = &walker{pending: fz.AppendPending(nil), left: fz.Tasks()}
	for i, deps := range w.pending {
		if deps == 0 {
			ready = append(ready, g.tasks[i])
		}
	}
	return w, ready
}

// freeze closes g and walks it.
func freeze(t *testing.T, g *Graph) (w *walker, ready []*Task) {
	t.Helper()
	if _, err := g.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return walk(g)
}

// complete finishes t and returns the tasks it released, in successor order,
// and whether the whole graph has drained.
func (w *walker) complete(t *Task) (ready []*Task, drained bool) {
	for _, s := range t.Succs() {
		if w.pending[s.ID()]--; w.pending[s.ID()] == 0 {
			ready = append(ready, s)
		}
	}
	w.left--
	return ready, w.left == 0
}

func TestLinearChain(t *testing.T) {
	g := New()
	a := g.Add(&Task{Label: "a"})
	b := g.Add(&Task{Label: "b"}, a)
	c := g.Add(&Task{Label: "c"}, b)
	w, ready := freeze(t, g)
	if len(ready) != 1 || ready[0] != a {
		t.Fatalf("initial ready = %v", ready)
	}
	next, drained := w.complete(a)
	if drained || len(next) != 1 || next[0] != b {
		t.Fatalf("after a: next=%v drained=%v", next, drained)
	}
	next, drained = w.complete(b)
	if drained || len(next) != 1 || next[0] != c {
		t.Fatalf("after b: next=%v drained=%v", next, drained)
	}
	next, drained = w.complete(c)
	if !drained || len(next) != 0 {
		t.Fatalf("after c: next=%v drained=%v", next, drained)
	}
}

func TestDiamond(t *testing.T) {
	g := New()
	top := g.Add(&Task{Label: "top"})
	l := g.Add(&Task{Label: "l"}, top)
	r := g.Add(&Task{Label: "r"}, top)
	bottom := g.Add(&Task{Label: "bottom"}, l, r)
	w, _ := freeze(t, g)
	next, _ := w.complete(top)
	if len(next) != 2 {
		t.Fatalf("fanout = %d, want 2", len(next))
	}
	if next, _ := w.complete(l); len(next) != 0 {
		t.Fatal("bottom released early")
	}
	next, drained := w.complete(r)
	if len(next) != 1 || next[0] != bottom {
		t.Fatalf("bottom not released: %v", next)
	}
	if drained {
		t.Fatal("drained before bottom completed")
	}
}

// A frozen graph is read-only: every mutator must panic, naming the task,
// instead of changing a graph whose runtimes execute from the snapshot.
func TestFrozenGraphRejectsMutation(t *testing.T) {
	g := New()
	a := g.Add(&Task{Label: "a", High: true})
	b := g.Add(&Task{Label: "b"})
	freeze(t, g)
	late := &Task{Label: "late"}
	for name, c := range map[string]struct {
		mutate func()
		names  string
	}{
		"Add":              {func() { g.Add(late, a) }, `"late"`},
		"AddLayer":         {func() { g.AddLayer([]*Task{late}, a) }, `"late"`},
		"AddEdge":          {func() { g.AddEdge(a, b) }, `"b"`},
		"ClearPriorities":  {func() { g.ClearPriorities() }, `"a"`},
		"InferCriticality": {func() { g.InferCriticality(1, false) }, `"a"`},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, name) || !strings.Contains(msg, c.names) {
					t.Errorf("%s on a frozen graph: panic %q, want one naming %s and task %s", name, msg, name, c.names)
				}
			}()
			c.mutate()
		}()
	}
	if g.Total() != 2 || len(a.Succs()) != 0 || b.PendingDeps() != 0 || !a.High || b.High {
		t.Fatal("a rejected mutation changed the graph")
	}
}

func TestAddEdge(t *testing.T) {
	g := New()
	a := g.Add(&Task{Label: "a"})
	b := g.Add(&Task{Label: "b"})
	g.AddEdge(a, b)
	_, ready := freeze(t, g)
	if len(ready) != 1 || ready[0] != a {
		t.Fatalf("ready = %v, want just a", ready)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g := New()
	a := g.Add(&Task{Label: "a"})
	b := g.Add(&Task{Label: "b"}, a)
	// Force a cycle through the internal edge list.
	b.succs = append(b.succs, a)
	a.pending++
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateOKOnDeepChain(t *testing.T) {
	g := New()
	var prev *Task
	for i := 0; i < 50000; i++ {
		t := &Task{}
		if prev == nil {
			g.Add(t)
		} else {
			g.Add(t, prev)
		}
		prev = t
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelismLayered(t *testing.T) {
	// P tasks per layer, critical task releases the next layer: the
	// paper's definition gives parallelism exactly P.
	for _, p := range []int{1, 2, 4, 7} {
		g := New()
		var crit *Task
		for layer := 0; layer < 10; layer++ {
			var newCrit *Task
			for i := 0; i < p; i++ {
				t := &Task{High: i == 0}
				if crit == nil {
					g.Add(t)
				} else {
					g.Add(t, crit)
				}
				if i == 0 {
					newCrit = t
				}
			}
			crit = newCrit
		}
		if got := g.Parallelism(); got != float64(p) {
			t.Fatalf("parallelism = %g, want %d", got, p)
		}
	}
}

func TestParallelismSingleTask(t *testing.T) {
	g := New()
	g.Add(&Task{})
	if got := g.Parallelism(); got != 1 {
		t.Fatalf("parallelism = %g, want 1", got)
	}
}

func TestParallelismEmptyGraph(t *testing.T) {
	if got := New().Parallelism(); got != 0 {
		t.Fatalf("empty graph parallelism = %g", got)
	}
}

// Property: parallelism is between 1 and the task count for any random
// layered DAG.
func TestParallelismBoundsProperty(t *testing.T) {
	check := func(layersRaw, widthRaw uint8) bool {
		layers := int(layersRaw%8) + 1
		width := int(widthRaw%5) + 1
		g := New()
		var prev []*Task
		for l := 0; l < layers; l++ {
			var cur []*Task
			for i := 0; i < width; i++ {
				t := &Task{}
				g.Add(t, prev...)
				cur = append(cur, t)
			}
			prev = cur
		}
		par := g.Parallelism()
		n := float64(g.Total())
		return par >= 1-1e-9 && par <= n+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTotal(t *testing.T) {
	g := New()
	a := g.Add(&Task{})
	g.Add(&Task{}, a)
	if g.Total() != 2 {
		t.Fatalf("total=%d", g.Total())
	}
	freeze(t, g)
	if g.Total() != 2 {
		t.Fatalf("after Freeze: total=%d", g.Total())
	}
}
