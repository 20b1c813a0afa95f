package workloads

import (
	"fmt"
	"testing"

	"dynasym/internal/dag"
	"dynasym/internal/kernels"
)

func TestSyntheticStructure(t *testing.T) {
	g := BuildSynthetic(SyntheticConfig{Kernel: MatMul, Tile: 64, Tasks: 120, Parallelism: 4})
	if g.Total() != 120 {
		t.Fatalf("total = %d, want 120", g.Total())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if par := g.Parallelism(); par != 4 {
		t.Fatalf("DAG parallelism = %g, want 4 (the paper's definition)", par)
	}
	// Exactly one critical task per layer.
	high := 0
	for _, tsk := range g.Tasks() {
		if tsk.High {
			high++
		}
	}
	if high != 30 {
		t.Fatalf("%d critical tasks, want 30 (one per layer)", high)
	}
}

func TestSyntheticDefaults(t *testing.T) {
	cfg := SyntheticConfig{Kernel: Copy}.Defaults()
	if cfg.Tile != 1024 || cfg.Tasks != 10000 {
		t.Fatalf("copy defaults = %+v", cfg)
	}
	cfg = (SyntheticConfig{Kernel: MatMul}).Defaults()
	if cfg.Tile != 64 || cfg.Tasks != 32000 {
		t.Fatalf("matmul defaults = %+v", cfg)
	}
	if (SyntheticConfig{Kernel: Stencil}).Defaults().Tasks != 20000 {
		t.Fatal("stencil default task count wrong")
	}
}

func TestSyntheticCriticalReleasesNextLayer(t *testing.T) {
	g := BuildSynthetic(SyntheticConfig{Kernel: Copy, Tasks: 8, Parallelism: 2})
	var ready []*dag.Task
	for _, tsk := range g.Tasks() {
		if tsk.PendingDeps() == 0 {
			ready = append(ready, tsk)
		}
	}
	if len(ready) != 2 {
		t.Fatalf("layer 0 has %d ready tasks, want 2", len(ready))
	}
	var crit, low *dag.Task
	for _, tsk := range ready {
		if tsk.High {
			crit = tsk
		} else {
			low = tsk
		}
	}
	// The low task releases nothing.
	if n := len(low.Succs()); n != 0 {
		t.Fatalf("low task has %d successors, want 0", n)
	}
	// The critical task alone releases the whole next layer.
	if n := len(crit.Succs()); n != 2 {
		t.Fatalf("critical task releases %d tasks, want 2", n)
	}
	for _, s := range crit.Succs() {
		if s.PendingDeps() != 1 || s.Iter != 1 {
			t.Fatalf("task %q: %d dependencies in layer %d, want 1 in layer 1", s.Label, s.PendingDeps(), s.Iter)
		}
	}
}

func TestKernelKindString(t *testing.T) {
	if MatMul.String() != "MatMul" || Copy.String() != "Copy" || Stencil.String() != "Stencil" {
		t.Fatal("kernel names wrong")
	}
	if MatMul.TypeID() != kernels.TypeMatMul {
		t.Fatal("type ids wrong")
	}
}

func TestKMeansGrainPartition(t *testing.T) {
	km := NewKMeans(KMeansConfig{N: 10000, Grains: 16})
	covered := 0
	largest := 0
	for g := 0; g < km.Grains; g++ {
		lo, hi := kmGrainRange(km, g)
		if hi < lo {
			t.Fatalf("grain %d inverted: [%d,%d)", g, lo, hi)
		}
		covered += hi - lo
		if hi-lo > largest {
			largest = hi - lo
		}
	}
	if covered != km.N {
		t.Fatalf("grains cover %d points, want %d", covered, km.N)
	}
	// The jumbo grain is the largest.
	lo, hi := kmGrainRange(km, km.Grains-1)
	if hi-lo != largest {
		t.Fatal("last grain is not the largest work unit")
	}
	if float64(hi-lo) < 0.9*km.JumboFrac*float64(km.N) {
		t.Fatalf("jumbo grain %d points, want ≈ %g", hi-lo, km.JumboFrac*float64(km.N))
	}
}

// kmGrainRange exposes the internal grain bounds.
func kmGrainRange(km *KMeans, g int) (int, int) {
	return km.grainRange(g)
}

// The whole run is one static graph: MaxIters × (Grains assigns + 1 reduce),
// iteration i+1's assigns hanging off reduce[i] and nothing else, the jumbo
// grain alone high-priority with a trace table of its own.
func TestKMeansGraphShape(t *testing.T) {
	const grains, iters = 8, 3
	km := NewKMeans(KMeansConfig{N: 1 << 10, Grains: grains, JumboFrac: 0.25, MaxIters: iters})
	g := km.Build()
	if g.Total() != iters*(grains+1) {
		t.Fatalf("graph has %d tasks, want %d", g.Total(), iters*(grains+1))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	tasks := g.Tasks()
	for iter := 0; iter < iters; iter++ {
		base := iter * (grains + 1)
		reduce := tasks[base+grains]
		if reduce.Label != fmt.Sprintf("reduce[%d]", iter) || reduce.Type != KMeansTypeReduce ||
			reduce.High || reduce.Iter != iter || reduce.PendingDeps() != grains {
			t.Fatalf("iteration %d reduce is %+v", iter, reduce)
		}
		for i, a := range tasks[base : base+grains] {
			jumbo := i == grains-1
			wantType := KMeansTypeAssign
			if jumbo {
				wantType = KMeansTypeAssignJumbo
			}
			if a.Label != fmt.Sprintf("assign[%d.%d]", iter, i) || a.Type != wantType || a.High != jumbo || a.Iter != iter {
				t.Fatalf("iteration %d assign %d is %+v", iter, i, a)
			}
			if len(a.Succs()) != 1 || a.Succs()[0] != reduce {
				t.Fatalf("assign[%d.%d] does not feed exactly its iteration's reduce", iter, i)
			}
			wantDeps := int32(1)
			if iter == 0 {
				wantDeps = 0
			}
			if a.PendingDeps() != wantDeps {
				t.Fatalf("assign[%d.%d] has %d dependencies, want %d", iter, i, a.PendingDeps(), wantDeps)
			}
		}
		// reduce[i] releases iteration i+1's assigns, in grain order.
		next := reduce.Succs()
		if iter == iters-1 {
			if len(next) != 0 {
				t.Fatalf("last reduce has %d successors", len(next))
			}
			continue
		}
		if len(next) != grains {
			t.Fatalf("reduce[%d] releases %d tasks, want %d", iter, len(next), grains)
		}
		for i, s := range next {
			if s != tasks[base+grains+1+i] {
				t.Fatalf("reduce[%d] successor %d is %q, want assign[%d.%d]", iter, i, s.Label, iter+1, i)
			}
		}
	}
	if jumbo, plain := tasks[grains-1].Cost.Ops, tasks[0].Cost.Ops; jumbo <= plain {
		t.Fatalf("jumbo grain costs %g ops, a regular grain %g", jumbo, plain)
	}
}

func TestHeatDistGraphShape(t *testing.T) {
	hd := NewHeatDist(HeatDistConfig{Nodes: 3, BlocksPerNode: 4, Iters: 5, RowsPerBlock: 8, Cols: 64})
	for node := 0; node < 3; node++ {
		g := hd.BuildNode(node)
		// 5 iterations × (4 blocks + 1 exchange).
		if g.Total() != 25 {
			t.Fatalf("node %d graph has %d tasks, want 25", node, g.Total())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		high := 0
		for _, tsk := range g.Tasks() {
			if tsk.High {
				// The hook knows an exchange by its type and tags its
				// messages with Iter: one exchange per iteration, in order.
				if tsk.Type != kernels.TypeComm || tsk.Iter != high {
					t.Fatalf("high task %q: type %d iter %d, want comm task of iteration %d", tsk.Label, tsk.Type, tsk.Iter, high)
				}
				high++
			}
		}
		if high != 5 {
			t.Fatalf("node %d has %d high tasks, want 5", node, high)
		}
		for _, p := range hd.peers(node) {
			if p != node-1 && p != node+1 || p < 0 || p > 2 {
				t.Fatalf("bad peer %d for node %d", p, node)
			}
		}
	}
}

func TestHeatDistCostShapes(t *testing.T) {
	hd := NewHeatDist(HeatDistConfig{})
	if hd.ComputeCost.Ops <= 0 || hd.CommCost.Ops <= 0 {
		t.Fatal("costs not derived")
	}
	if hd.BoundaryBytes() != float64(hd.Cols)*8 {
		t.Fatal("boundary size wrong")
	}
}
