package scenario

// Compiled workloads: a plan compiles each distinct workload variant of its
// spec once, into frozen task graphs, and every cell of the grid — on
// whichever worker — runs on those graphs in place: a frozen graph is
// immutable and a runtime keeps all execution state in its own arrays, so
// there are no per-cell instances. Every kind compiles the same way; HeatDist
// compiles one graph per node. Variants are keyed by the workload's content
// (config after point overrides and defaults, or the dagio content digest)
// plus the criticality variant, because applyCriticality rewrites graph
// priorities before the freeze; two points that resolve to the same key share
// one compiled workload, and a small process-wide cache shares compiled
// workloads across plans (the service re-plans overlapping specs constantly).
//
// Nothing is filed until a cell runs: the first cell (or PointVariant call) of
// a plan resolves its points to variants and files them in the cache, and the
// first cell run of a variant compiles it. A plan that is only ever assembled
// from cached cell results (the service's warm path) therefore neither files
// a variant nor builds a graph.

import (
	"fmt"
	"math"
	"sync"

	"dynasym/internal/dag"
	"dynasym/internal/lru"
	"dynasym/internal/sim"
	"dynasym/internal/simrt"
)

// CellState is reusable per-worker scratch for RunCellState: the simulation
// engine, whose event tiers keep their capacity across cells, and the
// simulated runtimes, whose queues, pools, and per-core state are recycled
// via Runtime.Reset. A CellState must not be used by two cells concurrently.
type CellState struct {
	engine *sim.Engine
	// rts holds one runtime per node index, each built by the first cell
	// that needs that node and reset for every cell after it. Reuse is pure
	// mechanism: a reset runtime is bit-identical to a fresh one.
	rts []*simrt.Runtime
	// probe is the worker's reusable probe for probed specs and traced
	// cells; the runtime re-zeros it per cell, and flushed aggregates and
	// rendered schedules are copies, so reuse never leaks telemetry across
	// cells.
	probe *simrt.Probe
	// seal is the buffer each cell's digest is encoded into (RunMetrics.sealInto).
	seal []byte
}

// NewCellState returns scratch state for one executor worker.
func NewCellState() *CellState { return &CellState{engine: sim.New()} }

// probeFor returns the state's reusable probe.
func (st *CellState) probeFor() *simrt.Probe {
	if st.probe == nil {
		st.probe = simrt.NewProbe()
	}
	return st.probe
}

// runtimesFor returns the state's runtime slots for the first n nodes; a nil
// slot is a node this state has not run yet.
func (st *CellState) runtimesFor(n int) []*simrt.Runtime {
	for len(st.rts) < n {
		st.rts = append(st.rts, nil)
	}
	return st.rts[:n]
}

// engineFor returns the state's engine, reset for the next cell.
func (st *CellState) engineFor() *sim.Engine {
	st.engine.Reset()
	return st.engine
}

// compiledWorkload is one workload variant, compiled at most once into its
// frozen graphs — one per node: a single graph for every kind but HeatDist.
// A frozen graph is immutable, so every cell of the variant, on every worker,
// runs on these same graphs.
type compiledWorkload struct {
	build func() ([]*dag.Graph, error)

	once   sync.Once
	err    error
	graphs []*dag.Frozen
}

// compileHook, when non-nil, observes every graph a compile builds and
// freezes. Tests count with it.
var compileHook func(*dag.Graph)

// nodeGraphs returns the variant's frozen graphs, compiling them on the first
// call. Callers only read them.
func (cw *compiledWorkload) nodeGraphs() ([]*dag.Frozen, error) {
	cw.once.Do(func() {
		var graphs []*dag.Graph
		graphs, cw.err = cw.build()
		cw.graphs = make([]*dag.Frozen, len(graphs))
		for i, g := range graphs {
			if cw.err == nil {
				cw.graphs[i], cw.err = g.Freeze()
			}
			if hook := compileHook; hook != nil {
				hook(g)
			}
		}
	})
	return cw.graphs, cw.err
}

// workloadKey renders the content key of a resolved workload variant: every
// field that changes the built graph (config after the point's overrides and
// defaults, the criticality variant, the dagio digest) and nothing else.
// Points with equal keys share one compiled workload.
func workloadKey(w WorkloadSpec) (string, error) {
	switch w.Kind {
	case Synthetic:
		cfg := w.Synthetic
		return fmt.Sprintf("synthetic|kernel=%d|tile=%d|sweeps=%d|tasks=%d|par=%d|crit=%s",
			cfg.Kernel, cfg.Tile, cfg.Sweeps, cfg.Tasks, cfg.Parallelism, w.Criticality), nil
	case KMeans:
		cfg := w.KMeans
		return fmt.Sprintf("kmeans|n=%d|d=%d|k=%d|grains=%d|jumbo=%x|scale=%x|iters=%d",
			cfg.N, cfg.D, cfg.K, cfg.Grains,
			math.Float64bits(cfg.JumboFrac), math.Float64bits(cfg.CostScale),
			cfg.MaxIters), nil
	case DAGFile:
		digest, err := w.DAG.Digest()
		if err != nil {
			return "", err
		}
		return "dagfile|" + digest + "|crit=" + w.Criticality, nil
	case DAGGen:
		cfg := w.DAGGen
		return fmt.Sprintf("daggen|model=%s|tiles=%d|tile=%d|layers=%d|width=%d|degree=%d|seed=%d|crit=%s",
			cfg.Model, cfg.Tiles, cfg.Tile, cfg.Layers, cfg.Width, cfg.Degree, cfg.Seed, w.Criticality), nil
	case HeatDist:
		cfg := w.Heat
		return fmt.Sprintf("heatdist|nodes=%d|blocks=%d|iters=%d|rows=%d|cols=%d",
			cfg.Nodes, cfg.BlocksPerNode, cfg.Iters, cfg.RowsPerBlock, cfg.Cols), nil
	default:
		return "", fmt.Errorf("unsupported workload kind %v", w.Kind)
	}
}

// compiledCacheCap bounds the process-wide compiled-workload cache. Entries
// are a variant's frozen graphs (tens of KB to a few MB for a paper-scale
// sweep), so the cache is deliberately small; sweeps only need their own
// handful of variants and eviction merely costs a rebuild.
const compiledCacheCap = 32

var (
	compiledMu sync.Mutex
	compiled   = lru.New[*compiledWorkload](compiledCacheCap)
)

// CompiledCacheLen returns how many workload variants the process-wide
// compiled cache holds (at most compiledCacheCap); the service exports it
// as a gauge.
func CompiledCacheLen() int {
	compiledMu.Lock()
	defer compiledMu.Unlock()
	return compiled.Len()
}

// compiledFor returns the process-wide compiled workload for the key,
// creating it (uncompiled) on first sight. The build closure is only
// captured for a new entry; for an existing key it is equivalent by
// construction of the key.
func compiledFor(key string, build func() ([]*dag.Graph, error)) *compiledWorkload {
	compiledMu.Lock()
	defer compiledMu.Unlock()
	if cw, ok := compiled.Get(key); ok {
		return cw
	}
	cw := &compiledWorkload{build: build}
	compiled.Add(key, cw)
	return cw
}

// compileWorkloads resolves each point of the (validated, defaults-filled)
// spec to its compiled workload and a dense per-plan variant id.
func compileWorkloads(s Spec) (byPoint []*compiledWorkload, variant []int, err error) {
	variant = make([]int, len(s.Points))
	byPoint = make([]*compiledWorkload, len(s.Points))
	ids := make(map[string]int, 1)
	for xi := range s.Points {
		w := resolve(s.Workload, s.Points[xi])
		key, err := workloadKey(w)
		if err != nil {
			return nil, nil, err
		}
		id, ok := ids[key]
		if !ok {
			id = len(ids)
			ids[key] = id
		}
		variant[xi] = id
		byPoint[xi] = compiledFor(key, func() ([]*dag.Graph, error) { return buildGraphs(w) })
	}
	return byPoint, variant, nil
}
