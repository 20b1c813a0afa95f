package dag

import (
	"reflect"
	"testing"

	"dynasym/internal/machine"
)

// diamond builds a 4-task diamond: a → {b, c} → d.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	a := g.Add(Task{Label: "a", High: true, Cost: machine.Cost{Ops: 1}})
	b := g.Add(Task{Label: "b", Cost: machine.Cost{Ops: 2}}, a)
	c := g.Add(Task{Label: "c", Cost: machine.Cost{Ops: 3}}, a)
	g.Add(Task{Label: "d", Iter: 1, Cost: machine.Cost{Ops: 4}}, b, c)
	return g
}

// drain runs the frozen graph to completion in ready order and returns the
// completion order of labels.
func drain(t *testing.T, g *Graph) []string {
	t.Helper()
	var order []string
	w, queue := walk(g)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, g.tasks[i].Label)
		ready, _ := w.complete(i)
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
	if n := len(fz.AppendPending(nil)); n != 4 {
		t.Fatalf("snapshot has %d tasks, want 4", n)
	}
	inst := fz.NewGraph()
	if !reflect.DeepEqual(inst.tasks, orig.tasks) {
		t.Fatalf("instance tasks %+v, want %+v", inst.tasks, orig.tasks)
	}
	ifz, err := inst.Freeze()
	if err != nil {
		t.Fatalf("Freeze of the instance: %v", err)
	}
	for i := range orig.tasks {
		if got, want := ifz.Succs(i), fz.Succs(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("task %d has successors %v, want %v", i, got, want)
		}
	}
	if err := fz.Reset(inst); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	want := drain(t, orig)
	got := drain(t, inst)
	if !sameOrder(got, want) {
		t.Fatalf("instance completion order %v, want %v", got, want)
	}
}

// Reset re-attaches an instance — run, then re-frozen under a snapshot of
// its own — to the snapshot, and the replay executes as before.
func TestFrozenResetReplays(t *testing.T) {
	g := diamond(t)
	fz, err := g.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	inst := fz.NewGraph()
	first := drain(t, inst)
	if _, err := inst.Freeze(); err != nil {
		t.Fatalf("re-Freeze: %v", err)
	}
	if err := fz.Reset(inst); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if inst.Snapshot() != fz || len(inst.tasks) != 4 {
		t.Fatalf("after Reset: snapshot re-attached %v, %d tasks, want true and 4", inst.Snapshot() == fz, len(inst.tasks))
	}
	if !fz.High(0) || !inst.tasks[0].High {
		t.Fatal("Reset lost the High mark")
	}
	second := drain(t, inst)
	if !sameOrder(first, second) {
		t.Fatalf("replay order %v, want %v", second, first)
	}
}

func TestFreezeRejectsDynamicGraphs(t *testing.T) {
	for _, edge := range [][2]int32{{0, 1}, {1, 0}, {-1, 0}} {
		g := New()
		g.Add(Task{Label: "in"})
		g.AddEdge(edge[0], edge[1])
		if _, err := g.Freeze(); err == nil {
			t.Fatalf("Freeze accepted the edge %d→%d outside a one-task graph", edge[0], edge[1])
		}
	}
}

func TestFrozenResetRejectsForeignGraph(t *testing.T) {
	fz, err := diamond(t).Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	other := New()
	other.Add(Task{Label: "solo"})
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
	for i := range a.tasks {
		a.tasks[i].High = !a.tasks[i].High
	}
	// Running and rewriting a must leave b untouched: same priorities, its
	// own tasks.
	for i := range b.tasks {
		if b.tasks[i].High != (i == 0) || &b.tasks[i] == &a.tasks[i] || fz.High(i) != (i == 0) {
			t.Fatalf("sibling instance task %q shares state with the drained instance", b.tasks[i].Label)
		}
	}
	drain(t, b)
}
