package dag

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestLinearChain(t *testing.T) {
	g := New()
	a := g.Add(&Task{Label: "a"})
	b := g.Add(&Task{Label: "b"}, a)
	c := g.Add(&Task{Label: "c"}, b)
	ready := g.Start()
	if len(ready) != 1 || ready[0] != a {
		t.Fatalf("initial ready = %v", ready)
	}
	a.MarkRunning()
	next, drained := g.Complete(a)
	if drained || len(next) != 1 || next[0] != b {
		t.Fatalf("after a: next=%v drained=%v", next, drained)
	}
	b.MarkRunning()
	next, drained = g.Complete(b)
	if drained || len(next) != 1 || next[0] != c {
		t.Fatalf("after b: next=%v drained=%v", next, drained)
	}
	c.MarkRunning()
	next, drained = g.Complete(c)
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
	g.Start()
	top.MarkRunning()
	next, _ := g.Complete(top)
	if len(next) != 2 {
		t.Fatalf("fanout = %d, want 2", len(next))
	}
	l.MarkRunning()
	if next, _ := g.Complete(l); len(next) != 0 {
		t.Fatal("bottom released early")
	}
	r.MarkRunning()
	next, drained := g.Complete(r)
	if len(next) != 1 || next[0] != bottom {
		t.Fatalf("bottom not released: %v", next)
	}
	if drained {
		t.Fatal("drained before bottom completed")
	}
}

func TestDynamicInsertionViaHook(t *testing.T) {
	g := New()
	count := 0
	var mkTask func(i int) *Task
	mkTask = func(i int) *Task {
		return &Task{
			Label: fmt.Sprintf("t%d", i),
			OnComplete: func(g *Graph, _ *Task) {
				count++
				if i < 4 {
					g.Add(mkTask(i + 1))
				}
			},
		}
	}
	g.Add(mkTask(0))
	ready := g.Start()
	for len(ready) > 0 {
		tsk := ready[0]
		ready = ready[1:]
		tsk.MarkRunning()
		next, _ := g.Complete(tsk)
		ready = append(ready, next...)
	}
	if count != 5 {
		t.Fatalf("hook chain executed %d tasks, want 5", count)
	}
	if g.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", g.Outstanding())
	}
}

func TestAddAfterPredecessorDone(t *testing.T) {
	g := New()
	a := g.Add(&Task{Label: "a"})
	g.Start()
	a.MarkRunning()
	g.Complete(a)
	// Dependency on a completed task must not block.
	b := g.Add(&Task{Label: "b"}, a)
	if b.State() != Ready {
		t.Fatalf("task depending on done predecessor is %v, want Ready", b.State())
	}
}

func TestAddEdge(t *testing.T) {
	g := New()
	a := g.Add(&Task{Label: "a"})
	b := g.Add(&Task{Label: "b"})
	g.AddEdge(a, b)
	ready := g.Start()
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

func TestIllegalTransitionPanics(t *testing.T) {
	g := New()
	a := g.Add(&Task{Label: "a"})
	g.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double MarkReady did not panic")
		}
	}()
	a.MarkReady() // already Ready
}

func TestTotalAndOutstanding(t *testing.T) {
	g := New()
	a := g.Add(&Task{})
	g.Add(&Task{}, a)
	if g.Total() != 2 || g.Outstanding() != 2 {
		t.Fatalf("total=%d outstanding=%d", g.Total(), g.Outstanding())
	}
	g.Start()
	a.MarkRunning()
	g.Complete(a)
	if g.Total() != 2 || g.Outstanding() != 1 {
		t.Fatalf("after one: total=%d outstanding=%d", g.Total(), g.Outstanding())
	}
}
