package workloads

import (
	"fmt"
	"testing"

	"dynasym/internal/dag"
	"dynasym/internal/kernels"
)

func TestSyntheticStructure(t *testing.T) {
	g := BuildSynthetic(SyntheticConfig{Kernel: MatMul, Tile: 64, Tasks: 120, Parallelism: 4})
	if par := g.Parallelism(); par != 4 {
		t.Fatalf("DAG parallelism = %g, want 4 (the paper's definition)", par)
	}
	fz, pending := frozen(t, g)
	if len(pending) != 120 {
		t.Fatalf("total = %d, want 120", len(pending))
	}
	// Exactly one critical task per layer.
	high := 0
	for i := range pending {
		if fz.High(i) {
			high++
		}
	}
	if high != 30 {
		t.Fatalf("%d critical tasks, want 30 (one per layer)", high)
	}
}

// frozen freezes g and returns its snapshot and every task's dependency
// count, in insertion order.
func frozen(t *testing.T, g *dag.Graph) (*dag.Frozen, []int32) {
	t.Helper()
	fz, err := g.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return fz, fz.AppendPending(nil)
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
	fz, pending := frozen(t, BuildSynthetic(SyntheticConfig{Kernel: Copy, Tasks: 8, Parallelism: 2}))
	var ready []int
	for i, deps := range pending {
		if deps == 0 {
			ready = append(ready, i)
		}
	}
	if len(ready) != 2 {
		t.Fatalf("layer 0 has %d ready tasks, want 2", len(ready))
	}
	var crit, low int
	for _, i := range ready {
		if fz.High(i) {
			crit = i
		} else {
			low = i
		}
	}
	// The low task releases nothing.
	if n := len(fz.Succs(low)); n != 0 {
		t.Fatalf("low task has %d successors, want 0", n)
	}
	// The critical task alone releases the whole next layer.
	if n := len(fz.Succs(crit)); n != 2 {
		t.Fatalf("critical task releases %d tasks, want 2", n)
	}
	for _, s := range fz.Succs(crit) {
		if tsk := fz.Task(int(s)); pending[s] != 1 || tsk.Iter != 1 {
			t.Fatalf("task %q: %d dependencies in layer %d, want 1 in layer 1", tsk.Label, pending[s], tsk.Iter)
		}
	}
}

func TestKernelKindString(t *testing.T) {
	if MatMul.String() != "MatMul" || Copy.String() != "Copy" || Stencil.String() != "Stencil" {
		t.Fatal("kernel names wrong")
	}
	if MatMul.typeID() != kernels.TypeMatMul {
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
	if g.Parallelism() == 0 {
		t.Fatal("k-means graph is cyclic")
	}
	fz, pending := frozen(t, g)
	if len(pending) != iters*(grains+1) {
		t.Fatalf("graph has %d tasks, want %d", len(pending), iters*(grains+1))
	}
	for iter := 0; iter < iters; iter++ {
		base := iter * (grains + 1)
		ri := base + grains
		reduce := fz.Task(ri)
		if reduce.Label != fmt.Sprintf("reduce[%d]", iter) || reduce.Type != kmeansTypeReduce ||
			reduce.High || reduce.Iter != iter || pending[ri] != grains {
			t.Fatalf("iteration %d reduce is %+v", iter, reduce)
		}
		for i := 0; i < grains; i++ {
			a := fz.Task(base + i)
			jumbo := i == grains-1
			wantType := kmeansTypeAssign
			if jumbo {
				wantType = kmeansTypeAssignJumbo
			}
			if a.Label != fmt.Sprintf("assign[%d.%d]", iter, i) || a.Type != wantType || a.High != jumbo || a.Iter != iter {
				t.Fatalf("iteration %d assign %d is %+v", iter, i, a)
			}
			if succs := fz.Succs(base + i); len(succs) != 1 || int(succs[0]) != ri {
				t.Fatalf("assign[%d.%d] does not feed exactly its iteration's reduce", iter, i)
			}
			wantDeps := int32(1)
			if iter == 0 {
				wantDeps = 0
			}
			if pending[base+i] != wantDeps {
				t.Fatalf("assign[%d.%d] has %d dependencies, want %d", iter, i, pending[base+i], wantDeps)
			}
		}
		// reduce[i] releases iteration i+1's assigns, in grain order.
		next := fz.Succs(ri)
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
			if int(s) != ri+1+i {
				t.Fatalf("reduce[%d] successor %d is %q, want assign[%d.%d]", iter, i, fz.Task(int(s)).Label, iter+1, i)
			}
		}
	}
	if jumbo, plain := fz.Task(grains-1).Cost.Ops, fz.Task(0).Cost.Ops; jumbo <= plain {
		t.Fatalf("jumbo grain costs %g ops, a regular grain %g", jumbo, plain)
	}
}

func TestHeatDistGraphShape(t *testing.T) {
	hd := NewHeatDist(HeatDistConfig{Nodes: 3, BlocksPerNode: 4, Iters: 5, RowsPerBlock: 8, Cols: 64})
	for node := 0; node < 3; node++ {
		g := hd.BuildNode(node)
		if g.Parallelism() == 0 {
			t.Fatalf("node %d graph is cyclic", node)
		}
		fz, pending := frozen(t, g)
		// 5 iterations × (4 blocks + 1 exchange).
		if len(pending) != 25 {
			t.Fatalf("node %d graph has %d tasks, want 25", node, len(pending))
		}
		high := 0
		for i := range pending {
			tsk := fz.Task(i)
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
	if hd.boundaryBytes() != float64(hd.Cols)*8 {
		t.Fatal("boundary size wrong")
	}
}

// Every builder tags a task's iteration inside [0, task count): the metrics
// collector indexes iterations in one dense slice, so a builder that tagged
// sparsely would grow that slice to its largest tag.
func TestIterTagsBelowTaskCount(t *testing.T) {
	hd := NewHeatDist(HeatDistConfig{Nodes: 2, BlocksPerNode: 4, Iters: 5, RowsPerBlock: 8, Cols: 64})
	graphs := map[string]*dag.Graph{
		"synthetic P=1":   BuildSynthetic(SyntheticConfig{Kernel: MatMul, Tasks: 50, Parallelism: 1}),
		"synthetic P=4":   BuildSynthetic(SyntheticConfig{Kernel: Stencil, Tasks: 50, Parallelism: 4}),
		"kmeans":          NewKMeans(KMeansConfig{N: 512, Grains: 4, MaxIters: 6}).Build(),
		"heatdist node 0": hd.BuildNode(0),
		"heatdist node 1": hd.BuildNode(1),
	}
	for name, g := range graphs {
		fz, pending := frozen(t, g)
		n, seen := len(pending), 0
		for i := range pending {
			task := fz.Task(i)
			if task.Iter < 0 || task.Iter >= n {
				t.Errorf("%s: task %s tagged iteration %d, outside [0, %d)", name, task.Label, task.Iter, n)
			}
			seen = max(seen, task.Iter+1)
		}
		if seen < 2 {
			t.Errorf("%s: tags span %d iterations, want several", name, seen)
		}
	}
}
