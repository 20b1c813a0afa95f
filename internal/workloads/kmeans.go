package workloads

import (
	"fmt"
	"math"
	"sync"

	"dynasym/internal/dag"
	"dynasym/internal/kernels"
	"dynasym/internal/machine"
	"dynasym/internal/ptt"
	"dynasym/internal/xrand"
)

// KMeans implements the paper's K-means clustering application (from the
// Rodinia suite) as a dynamic DAG: each iteration spawns one "assign" task
// per point partition (loop-parallel tasks with tunable grain) and one
// "reduce" task that recomputes the centroids and, unless converged or at
// the iteration limit, inserts the next iteration's tasks. Following the
// paper, the task containing the largest work unit is marked high priority.
//
// The simulator schedules from the cost descriptors; the Body closures do
// the arithmetic when the runtime is configured to run bodies
// (simrt.Config.RunBodies).
type KMeans struct {
	// Points is the row-major N×D data.
	Points []float64
	N, D   int
	// K is the number of clusters.
	K int
	// Grains is the number of point partitions per iteration.
	Grains int
	// JumboFrac is the fraction of points assigned to the last, largest
	// grain — the paper marks "the task containing the largest work
	// unit" as high priority, so this grain is the critical task. The
	// default (1/16) sizes it to about one core's share of an iteration.
	JumboFrac float64
	// CostScale multiplies the simulated per-point cost, standing in for
	// the per-record work of the Rodinia inputs (wider records, cache
	// misses) without allocating them; it does not affect real bodies.
	CostScale float64
	// MaxIters bounds the number of iterations.
	MaxIters int
	// Epsilon stops iterating when total centroid movement falls below
	// it; 0 disables convergence stopping (fixed iteration count, like
	// the paper's 100-iteration runs).
	Epsilon float64

	// Centroids is the current K×D centroid matrix.
	Centroids []float64
	// Assign is the current cluster index per point.
	Assign []int
	// Iters is the number of completed iterations.
	Iters int
	// Moved is the centroid movement of the last completed iteration.
	Moved float64

	assignCost machine.Cost // per average (non-jumbo) grain
	reduceCost machine.Cost
	bounds     []int // grain boundaries, len Grains+1

	mu        sync.Mutex
	sums      []float64
	counts    []int64
	converged bool
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
	Epsilon   float64
	Seed      uint64
	// BlobStd controls synthetic data generation: points are drawn from
	// K Gaussian blobs so the clustering has structure to find.
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

// NewKMeans generates blob data and initial centroids deterministically
// from the seed and returns the application object.
func NewKMeans(cfg KMeansConfig) *KMeans {
	cfg = cfg.Defaults()
	rng := xrand.New(cfg.Seed)
	km := &KMeans{
		Points:    make([]float64, cfg.N*cfg.D),
		N:         cfg.N,
		D:         cfg.D,
		K:         cfg.K,
		Grains:    cfg.Grains,
		JumboFrac: cfg.JumboFrac,
		CostScale: cfg.CostScale,
		MaxIters:  cfg.MaxIters,
		Epsilon:   cfg.Epsilon,
		Centroids: make([]float64, cfg.K*cfg.D),
		Assign:    make([]int, cfg.N),
		sums:      make([]float64, cfg.K*cfg.D),
		counts:    make([]int64, cfg.K),
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
	// Blob centers on the unit hypercube corners-ish.
	centers := make([]float64, cfg.K*cfg.D)
	for i := range centers {
		centers[i] = rng.Float64()
	}
	for p := 0; p < cfg.N; p++ {
		blob := p % cfg.K
		for d := 0; d < cfg.D; d++ {
			km.Points[p*cfg.D+d] = centers[blob*cfg.D+d] + cfg.BlobStd*rng.NormFloat64()
		}
	}
	// Initialize centroids from the first K points (deterministic).
	copy(km.Centroids, km.Points[:cfg.K*cfg.D])

	// Cost model: assigning one point is K×D multiply-adds, scaled by
	// CostScale to stand in for the Rodinia inputs' heavier records. The
	// reference cost below is per point; addIteration scales it by each
	// grain's size.
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

// assignBody computes, for the points of one grain, the nearest centroid
// and accumulates partial sums. Members of a moldable place split the grain
// by Exec.Part.
func (km *KMeans) assignBody(g int) func(dag.Exec) {
	return func(e dag.Exec) {
		lo, hi := km.grainRange(g)
		span := hi - lo
		mlo := lo + e.Part*span/e.Width
		mhi := lo + (e.Part+1)*span/e.Width
		D, K := km.D, km.K
		localSums := make([]float64, K*D)
		localCounts := make([]int64, K)
		for p := mlo; p < mhi; p++ {
			pt := km.Points[p*D : (p+1)*D]
			best, bestDist := 0, math.Inf(1)
			for k := 0; k < K; k++ {
				c := km.Centroids[k*D : (k+1)*D]
				dist := 0.0
				for d := 0; d < D; d++ {
					diff := pt[d] - c[d]
					dist += diff * diff
				}
				if dist < bestDist {
					best, bestDist = k, dist
				}
			}
			km.Assign[p] = best
			for d := 0; d < D; d++ {
				localSums[best*D+d] += pt[d]
			}
			localCounts[best]++
		}
		km.mu.Lock()
		for i, v := range localSums {
			km.sums[i] += v
		}
		for i, v := range localCounts {
			km.counts[i] += v
		}
		km.mu.Unlock()
	}
}

// reduceBody recomputes the centroids from the accumulated sums and records
// the movement.
func (km *KMeans) reduceBody() func(dag.Exec) {
	return func(e dag.Exec) {
		if e.Part != 0 {
			return // reduce is sequential; extra members idle
		}
		km.mu.Lock()
		defer km.mu.Unlock()
		moved := 0.0
		D := km.D
		for k := 0; k < km.K; k++ {
			if km.counts[k] == 0 {
				continue
			}
			inv := 1.0 / float64(km.counts[k])
			for d := 0; d < D; d++ {
				next := km.sums[k*D+d] * inv
				diff := next - km.Centroids[k*D+d]
				moved += diff * diff
				km.Centroids[k*D+d] = next
			}
		}
		km.Moved = math.Sqrt(moved)
		for i := range km.sums {
			km.sums[i] = 0
		}
		for i := range km.counts {
			km.counts[i] = 0
		}
		km.Iters++
		if km.Epsilon > 0 && km.Moved < km.Epsilon {
			km.converged = true
		}
	}
}

// Build returns the dynamic DAG: the first iteration's tasks are inserted
// statically, and each reduce task's completion hook inserts the next
// iteration until MaxIters (or convergence when Epsilon > 0).
func (km *KMeans) Build() *dag.Graph {
	g := dag.New()
	km.addIteration(g, 0)
	return g
}

// addIteration inserts one iteration's assign tasks and reduce task.
func (km *KMeans) addIteration(g *dag.Graph, iter int) {
	assigns := make([]*dag.Task, km.Grains)
	for i := 0; i < km.Grains; i++ {
		lo, hi := km.grainRange(i)
		pts := float64(hi - lo)
		cost := km.assignCost
		cost.Ops *= pts
		cost.Bytes *= pts
		typ := KMeansTypeAssign
		if i == km.Grains-1 {
			typ = KMeansTypeAssignJumbo
		}
		assigns[i] = g.Add(&dag.Task{
			Label: fmt.Sprintf("assign[%d.%d]", iter, i),
			Type:  typ,
			High:  i == km.Grains-1,
			Cost:  cost,
			Body:  km.assignBody(i),
			Iter:  iter,
		})
	}
	reduce := &dag.Task{
		Label: fmt.Sprintf("reduce[%d]", iter),
		Type:  KMeansTypeReduce,
		Cost:  km.reduceCost,
		Body:  km.reduceBody(),
		Iter:  iter,
		OnComplete: func(g *dag.Graph, _ *dag.Task) {
			if iter+1 < km.MaxIters && !km.converged {
				km.addIteration(g, iter+1)
			}
		},
	}
	g.Add(reduce, assigns...)
}

// Inertia returns the sum of squared distances of points to their assigned
// centroids — the clustering quality measure used by tests.
func (km *KMeans) Inertia() float64 {
	total := 0.0
	D := km.D
	for p := 0; p < km.N; p++ {
		c := km.Centroids[km.Assign[p]*D : (km.Assign[p]+1)*D]
		pt := km.Points[p*D : (p+1)*D]
		for d := 0; d < D; d++ {
			diff := pt[d] - c[d]
			total += diff * diff
		}
	}
	return total
}
