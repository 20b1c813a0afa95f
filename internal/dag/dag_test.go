package dag

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// walker releases successors the way a runtime does — from its own copy of
// the snapshot's dependency counts, leaving the frozen graph untouched.
type walker struct {
	fz      *Frozen
	pending []int32
	left    int
}

// walk returns a walker over the frozen graph's snapshot plus g's initially
// ready tasks — the zero dependency counts, in insertion order.
func walk(g *Graph) (w *walker, ready []int32) {
	fz := g.Snapshot()
	w = &walker{fz: fz, pending: fz.AppendPending(nil)}
	w.left = len(w.pending)
	for i, deps := range w.pending {
		if deps == 0 {
			ready = append(ready, int32(i))
		}
	}
	return w, ready
}

// freeze closes g and walks it.
func freeze(t *testing.T, g *Graph) (w *walker, ready []int32) {
	t.Helper()
	if _, err := g.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return walk(g)
}

// complete finishes task i and returns the tasks it released, in successor
// order, and whether the whole graph has drained.
func (w *walker) complete(i int32) (ready []int32, drained bool) {
	for _, s := range w.fz.Succs(int(i)) {
		if w.pending[s]--; w.pending[s] == 0 {
			ready = append(ready, s)
		}
	}
	w.left--
	return ready, w.left == 0
}

func TestLinearChain(t *testing.T) {
	g := New()
	a := g.Add(Task{Label: "a"})
	b := g.Add(Task{Label: "b"}, a)
	c := g.Add(Task{Label: "c"}, b)
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
	top := g.Add(Task{Label: "top"})
	l := g.Add(Task{Label: "l"}, top)
	r := g.Add(Task{Label: "r"}, top)
	bottom := g.Add(Task{Label: "bottom"}, l, r)
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
	a := g.Add(Task{Label: "a", High: true})
	b := g.Add(Task{Label: "b"})
	freeze(t, g)
	for name, c := range map[string]struct {
		mutate func()
		names  string
	}{
		"Add":              {func() { g.Add(Task{Label: "late"}, a) }, `"late"`},
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
	fz := g.Snapshot()
	if len(g.tasks) != 2 || len(g.from) != 0 || len(fz.Succs(int(a))) != 0 ||
		fz.AppendPending(nil)[b] != 0 || !g.tasks[a].High || g.tasks[b].High {
		t.Fatal("a rejected mutation changed the graph")
	}
}

func TestAddEdge(t *testing.T) {
	g := New()
	a := g.Add(Task{Label: "a"})
	b := g.Add(Task{Label: "b"})
	g.AddEdge(a, b)
	_, ready := freeze(t, g)
	if len(ready) != 1 || ready[0] != a {
		t.Fatalf("ready = %v, want just a", ready)
	}
}

func TestParallelismLayered(t *testing.T) {
	// P tasks per layer, critical task releases the next layer: the
	// paper's definition gives parallelism exactly P.
	for _, p := range []int{1, 2, 4, 7} {
		g := New()
		var crit []int32
		for layer := 0; layer < 10; layer++ {
			var newCrit int32
			for i := 0; i < p; i++ {
				t := g.Add(Task{High: i == 0}, crit...)
				if i == 0 {
					newCrit = t
				}
			}
			crit = []int32{newCrit}
		}
		if got := g.Parallelism(); got != float64(p) {
			t.Fatalf("parallelism = %g, want %d", got, p)
		}
	}
}

func TestParallelismSingleTask(t *testing.T) {
	g := New()
	g.Add(Task{})
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
		var prev []int32
		for l := 0; l < layers; l++ {
			var cur []int32
			for i := 0; i < width; i++ {
				cur = append(cur, g.Add(Task{}, prev...))
			}
			prev = cur
		}
		par := g.Parallelism()
		n := float64(len(g.tasks))
		return par >= 1-1e-9 && par <= n+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the snapshot's CSR is the append-order successor list. Over
// random forward-edge graphs, mixing Add's dependencies with AddEdge, each
// task's Succs equals a naive per-task list appended in edge order, each
// dependency count equals the task's in-degree, and an instance stamped out
// of the snapshot freezes back to the same snapshot.
func TestCSRIsAppendOrderProperty(t *testing.T) {
	check := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sizeRaw%40) + 1
		g := New()
		succs := make([][]int32, n)
		indeg := make([]int32, n)
		edge := func(p, s int32) {
			succs[p] = append(succs[p], s)
			indeg[s]++
		}
		for i := 0; i < n; i++ {
			var deps []int32
			for k := rng.Intn(4); k > 0 && i > 0; k-- {
				deps = append(deps, int32(rng.Intn(i)))
			}
			id := g.Add(Task{Label: fmt.Sprint(i), Iter: i}, deps...)
			for _, d := range deps {
				edge(d, id)
			}
			if i > 1 && rng.Intn(2) == 0 { // a late edge between earlier tasks
				s := int32(1 + rng.Intn(i))
				p := int32(rng.Intn(int(s)))
				g.AddEdge(p, s)
				edge(p, s)
			}
		}
		fz, err := g.Freeze()
		if err != nil {
			return false
		}
		for i := range succs {
			if !reflect.DeepEqual(append([]int32{}, fz.Succs(i)...), append([]int32{}, succs[i]...)) {
				return false
			}
		}
		if !reflect.DeepEqual(fz.AppendPending(nil), indeg) {
			return false
		}
		again, err := fz.NewGraph().Freeze()
		return err == nil && reflect.DeepEqual(*again, *fz)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTotal(t *testing.T) {
	g := New()
	a := g.Add(Task{})
	if b := g.Add(Task{}, a); a != 0 || b != 1 {
		t.Fatalf("Add returned %d and %d, want the insertion indexes 0 and 1", a, b)
	}
	freeze(t, g)
	if n := len(g.Snapshot().AppendPending(nil)); n != 2 {
		t.Fatalf("after Freeze: total=%d", n)
	}
}
