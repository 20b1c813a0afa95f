package scenario

import (
	"context"
	"fmt"
	"sync"

	"dynasym/internal/dag"
	"dynasym/internal/interfere"
	"dynasym/internal/machine"
	"dynasym/internal/metrics"
	"dynasym/internal/simnet"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/workloads"
)

// repSeedStride separates repetition seeds; repetition 0 runs with the
// spec's base seed, so a single-rep scenario reproduces a standalone run.
const repSeedStride = 1_000_003

// nodeSeedStride separates per-node runtime seeds in distributed cells
// (matching the paper-reproduction drivers, so refactoring them onto the
// engine changed no numbers).
const nodeSeedStride = 1009

// Run validates the spec and executes the full (policy × point × rep) grid
// on the process-wide cell executor. Every cell runs on private state seeded
// only by the spec, so the result is deterministic regardless of which worker
// ran what. A failed cell stops the hand-out of the cells after it; the returned
// error is always the lowest-index failing cell's, so failures too are
// deterministic, and a cell that panics fails like one that errs. Run is
// Plan → RunCellState (on the executor) → Assemble; callers that want to
// schedule, distribute or cache individual cells use those pieces directly.
func Run(s Spec) (*Result, error) {
	p, err := NewPlan(s)
	if err != nil {
		return nil, err
	}
	spec, total := p.Spec, len(p.Cells)
	if spec.Progress != nil {
		spec.Progress(0, total)
	}
	// One lock guards the outcomes — each cell's metrics go to its plan
	// index — and lets Progress see a strictly monotonic done count although
	// cells finish concurrently; the hook must not block for long.
	var mu sync.Mutex
	runs := make([]RunMetrics, total)
	failedAt, done := total, 0
	var failure error
	// A failure cancels the batch: running cells finish, the rest never
	// start. Cells start in plan order, so every cell below a failure has
	// recorded its own outcome when the batch returns, and the lowest
	// failing index is the same on every run. The executor's own error is
	// only that cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_ = defaultExecutor.Run(ctx, total, func(_ int, st *CellState, ci int) bool {
		c := p.Cells[ci]
		rm, stateOK, err := p.runCellRecovered(st, c)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			cancel()
			if ci < failedAt {
				failedAt, failure = ci, fmt.Errorf("scenario %q: %w", spec.Name, err)
			}
		} else {
			runs[ci] = rm
		}
		if done++; spec.Progress != nil {
			spec.Progress(done, total)
		}
		return stateOK
	})
	if failure != nil {
		return nil, failure
	}
	return p.Assemble(runs), nil
}

// runCellRecovered is RunCellState behind a panic boundary, its error naming
// the cell. The simulator panics only on states a bug can produce, but a
// panicking cell must fail its Run, not the process. The scratch state of a
// panicked cell is mid-run garbage: stateOK is false and the worker drops it.
func (p *Plan) runCellRecovered(st *CellState, c CellJob) (rm RunMetrics, stateOK bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%s panicked: %v", p.CellLabel(c), v)
		}
	}()
	if rm, err = p.RunCellState(st, c); err != nil {
		err = fmt.Errorf("%s: %w", p.CellLabel(c), err)
	}
	return rm, true, err
}

// MustRun is Run but panics on error; intended for spec tables whose specs
// are static literals already covered by tests.
func MustRun(s Spec) *Result {
	res, err := Run(s)
	if err != nil {
		panic(err)
	}
	return res
}

// runCell executes one repetition of one cell: one runtime per node — a
// single node for every kind but HeatDist, whose nodes also share a simulated
// interconnect — on the worker's reusable engine and runtimes in st and on
// the plan's shared per-node machine models and the point's compiled, frozen
// per-node graphs, which every cell of the variant reads in place. probe,
// when non-nil, observes the run: it records scheduler introspection into
// RunMetrics.Sched and keeps the records Probe.WriteChromeTrace reads. All of it
// is pure mechanism — none of it changes the metrics, which carry the
// cell's seed and leave sealed.
func (p *Plan) runCell(c CellJob, st *CellState, probe *simrt.Probe) (RunMetrics, error) {
	s, pol, pt, seed := &p.Spec, p.Spec.Policies[c.Policy], p.Spec.Points[c.Point], c.Seed
	models, err := p.machineModels()
	if err != nil {
		return RunMetrics{}, err
	}
	compiled, _, err := p.variants()
	if err != nil {
		return RunMetrics{}, err
	}
	graphs, err := compiled[c.Point].nodeGraphs()
	if err != nil {
		return RunMetrics{}, err
	}
	engine := st.engineFor()
	var hd *workloads.HeatDist
	var net *simnet.Network
	if s.Workload.Kind == HeatDist {
		hd = workloads.NewHeatDist(s.Workload.Heat)
		net = simnet.New(engine, s.Latency, s.Bandwidth)
	}
	rts := st.runtimesFor(len(models))
	for node, model := range models {
		cfg := simrt.Config{
			Topo:   model.Platform(),
			Model:  model,
			Policy: pol,
			Alpha:  cellAlpha(s, pt),
			Seed:   seed + uint64(node)*nodeSeedStride,
			Probe:  probe,
			Engine: engine,
		}
		if hd != nil {
			cfg.Hook = hd.Hook(net, node)
		}
		if rts[node] == nil {
			rts[node], err = simrt.New(cfg)
		} else {
			// Warm worker: recycle the runtime's allocations. New is Reset
			// on a zero runtime, so the cell's metrics cannot depend on
			// what ran before.
			err = rts[node].Reset(cfg)
		}
		if err != nil {
			return RunMetrics{}, err
		}
		if err := rts[node].Start(graphs[node]); err != nil {
			return RunMetrics{}, fmt.Errorf("start node %d: %w", node, err)
		}
	}
	engine.Run()
	for node, rt := range rts {
		if !rt.Finished() {
			return RunMetrics{}, fmt.Errorf("node %d stalled (dependency deadlock or unmatched exchange)", node)
		}
	}
	var rm RunMetrics
	if hd == nil {
		rm = collectRun(rts[0])
	} else {
		rm = mergeNodes(rts)
	}
	if probe != nil {
		rm.Sched = probe.Sched()
	}
	rm.Seed = seed
	st.seal = rm.sealInto(st.seal) // the one point a cell's metrics become final
	return rm, nil
}

// mergeNodes folds the per-node metrics of a distributed cell into one: the
// slowest node's makespan, summed counters, concatenated core times and a
// merged placement histogram. Per-iteration statistics are per node and are
// not carried over.
func mergeNodes(rts []*simrt.Runtime) RunMetrics {
	var rm RunMetrics
	hists := make([][]metrics.PlaceShare, 0, len(rts))
	for _, rt := range rts {
		part := collectRun(rt)
		if part.Makespan > rm.Makespan {
			rm.Makespan = part.Makespan
		}
		rm.TasksDone += part.TasksDone
		rm.CoreBusy = append(rm.CoreBusy, part.CoreBusy...)
		rm.Steals += part.Steals
		rm.FailedSteals += part.FailedSteals
		rm.Dispatches += part.Dispatches
		hists = append(hists, part.HighHist)
	}
	rm.HighHist = mergeHists(hists...)
	if rm.Makespan > 0 {
		rm.Throughput = float64(rm.TasksDone) / rm.Makespan
	}
	return rm
}

// nodePlatform builds the platform for one distributed node. The
// "haswell-node" preset tags each node's clusters with its node id, like
// the paper's four-node cluster; any other platform is replicated as-is.
func nodePlatform(s *Spec, node int) (*topology.Platform, error) {
	if s.Platform.Preset == "haswell-node" && len(s.Platform.Clusters) == 0 && s.Platform.WidthCap == 0 {
		return topology.HaswellNode(node), nil
	}
	return s.Platform.build()
}

// cellAlpha resolves the PTT weight for a point.
func cellAlpha(s *Spec, pt Point) float64 {
	if pt.Alpha > 0 {
		return pt.Alpha
	}
	return s.Alpha
}

// buildGraphs constructs the task graphs of a resolved workload, one per
// node: HeatDist's per-node stencils, a single graph for every other kind.
func buildGraphs(w WorkloadSpec) ([]*dag.Graph, error) {
	var g *dag.Graph
	switch w.Kind {
	case Synthetic:
		g = workloads.BuildSynthetic(w.Synthetic)
	case KMeans:
		g = workloads.NewKMeans(w.KMeans).Build()
	case HeatDist:
		hd := workloads.NewHeatDist(w.Heat)
		graphs := make([]*dag.Graph, hd.Nodes)
		for node := range graphs {
			graphs[node] = hd.BuildNode(node)
		}
		return graphs, nil
	case DAGFile:
		var err error
		if g, err = w.DAG.Build(); err != nil {
			return nil, err
		}
	case DAGGen:
		gs, err := w.DAGGen.Graph()
		if err != nil {
			return nil, err
		}
		if g, err = gs.Build(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unsupported workload kind %v", w.Kind)
	}
	return []*dag.Graph{applyCriticality(g, w.Criticality)}, nil
}

// applyCriticality rewrites the graph's priority annotations for the
// CritInferred and CritNone variants; CritUser keeps the builder's own
// high marks.
func applyCriticality(g *dag.Graph, variant string) *dag.Graph {
	switch variant {
	case CritInferred:
		g.ClearPriorities()
		g.InferCriticality(1.0, false)
	case CritNone:
		g.ClearPriorities()
	}
	return g
}

// apply installs the disturbance into the model. The spec was validated,
// so parameter errors cannot occur here.
func (d Disturbance) apply(m *machine.Model) {
	cores := d.Cores
	if len(cores) == 0 {
		cores = m.Platform().CoresOf(d.Cluster)
	}
	switch d.Kind {
	case CoRunCPU:
		if d.From == 0 && d.To == 0 {
			interfere.CoRunCPU(m, cores, d.Share)
		} else {
			interfere.CoRunCPUEpisode(m, cores, d.Share, d.From, d.To)
		}
	case CoRunMemory:
		interfere.CoRunMemory(m, cores[0], d.Share, d.BWFactor)
	case dvfs:
		interfere.DVFS(m, d.Cluster, d.HiHz, d.LoHz, d.HiDur, d.LoDur)
	case stall:
		for _, c := range cores {
			interfere.Stall(m, c, d.From, d.To)
		}
	case Burst:
		interfere.BurstCPU(m, cores, d.Share, d.BusyDur, d.IdleDur, d.Phase0, d.PhaseStep)
	case Throttle:
		steps := d.RampSteps
		if steps == 0 {
			steps = 8
		}
		interfere.ThrottleRamp(m, d.Cluster, d.From, d.To, d.Floor, steps)
	}
}

// collectRun extracts RunMetrics from the views of one runtime's record.
func collectRun(rt *simrt.Runtime) RunMetrics {
	coll := rt.Collector()
	rm := RunMetrics{
		Throughput: coll.Throughput(),
		Makespan:   coll.Makespan(),
		TasksDone:  coll.TasksDone(),
		CoreBusy:   coll.CoreBusy(),
		HighHist:   coll.PlaceHistogram(),
		Iters:      coll.IterStats(),
	}
	for _, st := range rt.CoreStats() {
		rm.Steals += st.Steals
		rm.FailedSteals += st.FailedSteals
		rm.Dispatches += st.Dispatches
	}
	return rm
}
