package workloads

import (
	"fmt"

	"dynasym/internal/dag"
	"dynasym/internal/kernels"
	"dynasym/internal/machine"
	"dynasym/internal/ptt"
)

// KMeans describes the paper's K-means clustering application (from the
// Rodinia suite) as a task graph: each iteration is one "assign" task per
// point partition (loop-parallel tasks with tunable grain) followed by one
// "reduce" task that recomputes the centroids, and iteration i+1's assigns
// hang off reduce[i]. Following the paper, the task containing the largest
// work unit is marked high priority.
//
// The graph is a cost description, not a computation: no points are
// generated and nothing is clustered, so every run unrolls exactly MaxIters
// iterations (the paper's fixed 100-iteration runs) and Build emits them all
// up front.
type KMeans struct {
	// N is the dataset's point count.
	N int
	// Grains is the number of point partitions per iteration.
	Grains int
	// JumboFrac is the fraction of points assigned to the last, largest
	// grain — the paper marks "the task containing the largest work
	// unit" as high priority, so this grain is the critical task. The
	// default (1/16) sizes it to about one core's share of an iteration.
	JumboFrac float64
	// MaxIters is the number of iterations.
	MaxIters int

	assignCost machine.Cost // per point
	reduceCost machine.Cost
	bounds     []int // grain boundaries, len Grains+1
}

// KMeansTypeAssign, KMeansTypeAssignJumbo and KMeansTypeReduce are the PTT
// task types used by the K-means DAG. The jumbo (largest) partition gets
// its own trace table: its execution times are several times those of the
// regular partitions, and the paper instantiates one table per task type
// precisely because "the performance varies per type".
const (
	KMeansTypeAssign ptt.TypeID = kernels.TypeUser + iota
	KMeansTypeAssignJumbo
	KMeansTypeReduce
)

// KMeansConfig parameterizes NewKMeans.
type KMeansConfig struct {
	N, D, K   int
	Grains    int
	JumboFrac float64
	CostScale float64
	MaxIters  int
	// Epsilon, Seed and BlobStd are inert: they parameterized the generated
	// dataset and convergence stopping of an executable K-means this
	// repository no longer has. They remain because the canonical spec
	// encoding — and so every spec and cell hash — includes them; the built
	// graph does not depend on them.
	Epsilon float64
	Seed    uint64
	BlobStd float64
}

// Defaults fills unset fields with paper-scale values (Figure 9 uses a
// 16-core Haswell node, 100 iterations).
func (c KMeansConfig) Defaults() KMeansConfig {
	if c.N == 0 {
		c.N = 1 << 16
	}
	if c.D == 0 {
		c.D = 16
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.Grains == 0 {
		c.Grains = 64
	}
	if c.JumboFrac == 0 {
		c.JumboFrac = 1.0 / 16
	}
	if c.CostScale == 0 {
		c.CostScale = 20
	}
	if c.MaxIters == 0 {
		c.MaxIters = 100
	}
	if c.BlobStd == 0 {
		c.BlobStd = 0.08
	}
	return c
}

// NewKMeans derives the grain partition and the cost descriptors.
func NewKMeans(cfg KMeansConfig) *KMeans {
	cfg = cfg.Defaults()
	km := &KMeans{
		N:         cfg.N,
		Grains:    cfg.Grains,
		JumboFrac: cfg.JumboFrac,
		MaxIters:  cfg.MaxIters,
	}
	// Grain boundaries: the last grain is the jumbo (critical) work unit.
	jumbo := int(float64(cfg.N) * cfg.JumboFrac)
	if jumbo < cfg.N/cfg.Grains {
		jumbo = cfg.N / cfg.Grains
	}
	rest := cfg.N - jumbo
	km.bounds = make([]int, cfg.Grains+1)
	if cfg.Grains > 1 {
		for g := 0; g < cfg.Grains; g++ {
			km.bounds[g] = g * rest / (cfg.Grains - 1)
		}
	}
	km.bounds[cfg.Grains-1] = rest
	km.bounds[cfg.Grains] = cfg.N
	// Cost model: assigning one point is K×D multiply-adds, scaled by
	// CostScale to stand in for the Rodinia inputs' heavier records. The
	// reference cost below is per point; Build scales it by each grain's
	// size.
	flopsPerPoint := float64(cfg.K) * float64(cfg.D) * 3 * cfg.CostScale
	km.assignCost = machine.Cost{
		Ops:          flopsPerPoint / 0.5, // scalar distance loop, ~0.5 flops/cycle
		Bytes:        float64(cfg.D) * 8 * cfg.CostScale,
		SharedBytes:  float64(cfg.K*cfg.D) * 8,
		WorkingSet:   float64(cfg.K*cfg.D) * 8,
		SyncSeconds:  2e-6,
		WidthPenalty: 0.10,
	}
	km.reduceCost = machine.Cost{
		Ops:          float64(cfg.K*cfg.D) * 200,
		Bytes:        float64(cfg.K*cfg.D) * 8,
		SyncSeconds:  1e-6,
		WidthPenalty: 0.5,
	}
	return km
}

// grainRange returns the half-open point interval of grain g. The last
// grain is the jumbo (largest) work unit, sized by JumboFrac.
func (km *KMeans) grainRange(g int) (lo, hi int) {
	return km.bounds[g], km.bounds[g+1]
}

// Build returns the graph of all MaxIters iterations.
func (km *KMeans) Build() *dag.Graph {
	g := dag.New()
	g.Grow(km.MaxIters * (km.Grains + 1))
	assigns := make([]*dag.Task, km.Grains)
	var prevReduce *dag.Task
	for iter := 0; iter < km.MaxIters; iter++ {
		for i := range assigns {
			lo, hi := km.grainRange(i)
			pts := float64(hi - lo)
			cost := km.assignCost
			cost.Ops *= pts
			cost.Bytes *= pts
			typ := KMeansTypeAssign
			if i == km.Grains-1 {
				typ = KMeansTypeAssignJumbo
			}
			assigns[i] = &dag.Task{
				Label: fmt.Sprintf("assign[%d.%d]", iter, i),
				Type:  typ,
				High:  i == km.Grains-1,
				Cost:  cost,
				Iter:  iter,
			}
		}
		g.AddLayer(assigns, prevReduce)
		prevReduce = g.Add(&dag.Task{
			Label: fmt.Sprintf("reduce[%d]", iter),
			Type:  KMeansTypeReduce,
			Cost:  km.reduceCost,
			Iter:  iter,
		}, assigns...)
	}
	return g
}
