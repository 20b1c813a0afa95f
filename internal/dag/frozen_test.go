package dag

import (
	"testing"

	"dynasym/internal/machine"
)

// diamond builds a 4-task diamond: a → {b, c} → d.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.Add(&Task{Label: "a", High: true, Cost: machine.Cost{Ops: 1}})
	b := g.Add(&Task{Label: "b", Cost: machine.Cost{Ops: 2}}, a)
	c := g.Add(&Task{Label: "c", Cost: machine.Cost{Ops: 3}}, a)
	g.Add(&Task{Label: "d", Iter: 1, Cost: machine.Cost{Ops: 4}}, b, c)
	return g
}

// drain runs the frozen graph to completion in ready order and returns the
// completion order of labels.
func drain(t *testing.T, g *Graph) []string {
	t.Helper()
	var order []string
	w, queue := walk(g)
	for len(queue) > 0 {
		task := queue[0]
		queue = queue[1:]
		order = append(order, task.Label)
		ready, _ := w.complete(task)
		queue = append(queue, ready...)
	}
	if w.left != 0 {
		t.Fatalf("graph did not drain: %d outstanding", w.left)
	}
	return order
}

func sameOrder(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFreezeNewGraphMatchesOriginal(t *testing.T) {
	orig := diamond(t)
	fz, err := orig.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if fz.Tasks() != 4 {
		t.Fatalf("Tasks() = %d, want 4", fz.Tasks())
	}
	inst := fz.NewGraph()
	ot, it := orig.Tasks(), inst.Tasks()
	if len(ot) != len(it) {
		t.Fatalf("instance has %d tasks, original %d", len(it), len(ot))
	}
	for i := range ot {
		o, n := ot[i], it[i]
		if o.Label != n.Label || o.Type != n.Type || o.High != n.High ||
			o.Iter != n.Iter || o.Cost != n.Cost || o.ID() != n.ID() {
			t.Fatalf("task %d differs: orig %+v inst %+v", i, o, n)
		}
		if len(o.succs) != len(n.succs) {
			t.Fatalf("task %d has %d succs, want %d", i, len(n.succs), len(o.succs))
		}
		for j := range o.succs {
			if o.succs[j].ID() != n.succs[j].ID() {
				t.Fatalf("task %d succ %d is id %d, want %d", i, j, n.succs[j].ID(), o.succs[j].ID())
			}
		}
	}
	want := drain(t, orig)
	got := drain(t, inst)
	if !sameOrder(got, want) {
		t.Fatalf("instance completion order %v, want %v", got, want)
	}
}

func TestFrozenResetReplays(t *testing.T) {
	g := diamond(t)
	fz, err := g.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	inst := fz.NewGraph()
	first := drain(t, inst)
	// Simulate external priority mutation between runs (ClearPriorities).
	for _, task := range inst.Tasks() {
		task.High = false
	}
	if err := fz.Reset(inst); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if inst.Total() != 4 {
		t.Fatalf("after Reset: total=%d, want 4", inst.Total())
	}
	if !inst.Tasks()[0].High {
		t.Fatal("Reset did not restore the High mark")
	}
	second := drain(t, inst)
	if !sameOrder(first, second) {
		t.Fatalf("replay order %v, want %v", second, first)
	}
}

func TestFreezeRejectsDynamicGraphs(t *testing.T) {
	foreign := New()
	foreign.AddEdge(foreign.Add(&Task{Label: "in"}), New().Add(&Task{Label: "out"}))
	if _, err := foreign.Freeze(); err == nil {
		t.Fatal("Freeze accepted a successor outside the graph")
	}
}

func TestFrozenResetRejectsForeignGraph(t *testing.T) {
	fz, err := diamond(t).Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	other := New()
	other.Add(&Task{Label: "solo"})
	if err := fz.Reset(other); err == nil {
		t.Fatal("Reset accepted a graph with a different task count")
	}
}

func TestNewGraphInstancesAreIndependent(t *testing.T) {
	fz, err := diamond(t).Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	a, b := fz.NewGraph(), fz.NewGraph()
	drain(t, a)
	for _, task := range a.Tasks() {
		task.High = !task.High
	}
	// Running and rewriting a must leave b untouched: same priorities, its
	// own tasks.
	for i, task := range b.Tasks() {
		if task.High != (i == 0) || task == a.Tasks()[i] {
			t.Fatalf("sibling instance task %q shares state with the drained instance", task.Label)
		}
	}
	drain(t, b)
}
