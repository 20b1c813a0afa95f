package scenario

// Plan / RunCellState / Merge split Run's monolithic grid loop into
// first-class schedulable units. A Plan enumerates every (policy × point ×
// repetition) cell of a validated spec in Run's execution order;
// RunCellState executes one cell as a pure function of the plan and the
// cell's coordinates; Merge reassembles cell results into a Result that is
// bit-identical to what a monolithic Run of the same spec produces.
//
// Each CellJob carries a canonical hash — the cell-granular cache key used
// by internal/service. The hash covers the spec's cell-invariant fields
// (platform, workload, disturbances, alpha, interconnect; see cellBase in
// canonical.go) plus the cell's own policy name, point parameters and
// derived seed. It deliberately excludes the spec's name, its grid axes and
// the point label: none of them change the cell's metrics, so two
// overlapping specs — say, a sweep and the same sweep with one extra point —
// share the hashes of their common cells and a cell cache can serve the
// overlap without re-simulating.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"dynasym/internal/machine"
	"dynasym/internal/simrt"
	"dynasym/internal/topology"
	"dynasym/internal/trace"
)

// CellJob identifies one cell of a plan's grid: indexes into the plan
// spec's Policies/Points axes, the repetition number, the derived runtime
// seed, and the canonical cell hash.
type CellJob struct {
	// Policy and Point index Plan.Spec.Policies and Plan.Spec.Points.
	Policy, Point int
	// Rep is the repetition number in [0, Spec.Reps).
	Rep int
	// Seed is the runtime seed this cell runs with
	// (Spec.Seed + Rep*repSeedStride).
	Seed uint64
	// Hash is the canonical per-cell cache key.
	Hash string
}

// Plan is a spec expanded into its cell shards.
type Plan struct {
	// Spec is the normalized (withDefaults) and validated spec.
	Spec Spec
	// Hash is the spec's canonical hash (the job-level key).
	Hash string
	// Canonical is the canonical JSON encoding Hash is the sha256 of,
	// kept so shard senders can ship the spec without re-marshaling it
	// per shard (a dagfile spec embeds its whole graph; re-encoding it
	// for every shard attempt of a large grid is pure waste).
	Canonical []byte
	// Cells enumerates the grid policy-major, then point, then repetition —
	// exactly the order Run executes.
	Cells []CellJob

	// compiled holds, per point index, the shared compiled workload the
	// point's cells run on. Compilation is lazy: entries compile on the
	// first cell that runs, so plans that are merged purely from cached
	// results never build a graph.
	compiled []*compiledWorkload
	// variant maps each point index to a dense workload-variant id —
	// points with equal ids share one compiled graph (see PointVariant).
	variant []int

	// topo is the plan's platform — the one validation built — and models
	// its configured machine models (spec disturbances applied), one per
	// node: one for every kind but HeatDist. Both are cell-invariant and
	// shared read-only by every cell on every worker: a Platform is
	// immutable and a configured Model is safe for concurrent readers. The
	// models are built lazily, once; Merge needs only the platform, so a plan
	// merged purely from cached cells never builds a model.
	topo      *topology.Platform
	modelOnce sync.Once
	models    []*machine.Model
	modelErr  error
}

// planBuildHook, when non-nil, observes each lazy build of a plan's machine
// models. Tests count with it.
var planBuildHook func()

// machineModels returns the plan's shared, fully configured machine models,
// one per node, building them on first use. Node 0 runs on the plan's
// platform. Callers must treat the models as read-only.
func (p *Plan) machineModels() ([]*machine.Model, error) {
	p.modelOnce.Do(func() {
		if hook := planBuildHook; hook != nil {
			hook()
		}
		nodes := 1
		if p.Spec.Workload.Kind == HeatDist {
			nodes = p.Spec.Workload.Heat.Defaults().Nodes
		}
		models := make([]*machine.Model, nodes)
		for node := range models {
			nodeTopo := p.topo
			if node > 0 {
				if nodeTopo, p.modelErr = nodePlatform(&p.Spec, node); p.modelErr != nil {
					return
				}
			}
			models[node] = machine.New(nodeTopo)
			for _, d := range p.Spec.Disturb {
				if d.Node == node {
					d.apply(models[node])
				}
			}
		}
		p.models = models
	})
	return p.models, p.modelErr
}

// NewPlan validates the spec and expands it into cell jobs.
func NewPlan(s Spec) (*Plan, error) {
	s = s.withDefaults()
	topo, err := s.validate()
	if err != nil {
		return nil, err
	}
	canonical, err := s.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canonical)
	hash := hex.EncodeToString(sum[:])
	base, err := s.cellBase()
	if err != nil {
		return nil, err
	}
	cells := make([]CellJob, 0, len(s.Policies)*len(s.Points)*s.Reps)
	for pi, pol := range s.Policies {
		for xi, pt := range s.Points {
			for rep := 0; rep < s.Reps; rep++ {
				seed := s.Seed + uint64(rep)*repSeedStride
				cells = append(cells, CellJob{
					Policy: pi, Point: xi, Rep: rep,
					Seed: seed,
					Hash: cellHash(base, pol.Name(), pt, seed),
				})
			}
		}
	}
	compiled, variant, err := compileWorkloads(s)
	if err != nil {
		return nil, err
	}
	return &Plan{Spec: s, Hash: hash, Canonical: canonical, Cells: cells,
		compiled: compiled, variant: variant, topo: topo}, nil
}

// cellHashVersion tags the engine generation in every cell hash. Bump it
// whenever a change alters the simulated metrics of an unchanged spec
// (scheduler behavior, kernel cost models, seeding) — the canonical spec
// encoding cannot see such changes, so without this tag a version-skewed
// peer would serve old-engine results under the same keys and silently
// mix engine outputs inside one merged Result.
const cellHashVersion = "cell-v1"

// cellHash derives the canonical cell key from the engine generation, the
// spec's cell-invariant base encoding and the cell's own coordinates. The
// point label is excluded: it names the point in reports but cannot
// change the metrics.
func cellHash(base []byte, policy string, pt Point, seed uint64) string {
	h := sha256.New()
	h.Write([]byte(cellHashVersion))
	h.Write([]byte{0})
	h.Write(base)
	fmt.Fprintf(h, "\x00policy=%s\x00parallelism=%d\x00tile=%d\x00alpha=%x\x00seed=%d",
		policy, pt.Parallelism, pt.Tile, math.Float64bits(pt.Alpha), seed)
	return hex.EncodeToString(h.Sum(nil))
}

// Cell returns the plan cell at grid position (policy, point, rep); the
// position must be in range (plans enumerate the full grid).
func (p *Plan) Cell(policy, point, rep int) (CellJob, error) {
	if policy < 0 || policy >= len(p.Spec.Policies) ||
		point < 0 || point >= len(p.Spec.Points) ||
		rep < 0 || rep >= p.Spec.Reps {
		return CellJob{}, fmt.Errorf("scenario %q: cell (%d,%d,%d) outside the %dx%dx%d grid",
			p.Spec.Name, policy, point, rep, len(p.Spec.Policies), len(p.Spec.Points), p.Spec.Reps)
	}
	return p.Cells[(policy*len(p.Spec.Points)+point)*p.Spec.Reps+rep], nil
}

// CellLabel renders a cell's coordinates for error messages and logs,
// matching Run's historical error context ("DAM-C at P4 (rep 1)").
func (p *Plan) CellLabel(c CellJob) string {
	return fmt.Sprintf("%s at %s (rep %d)",
		p.Spec.Policies[c.Policy].Name(), p.Spec.Points[c.Point].Label, c.Rep)
}

// PointVariant returns the dense workload-variant id of a point index:
// points with equal ids run structurally identical graphs from one
// compiled workload. Backends hand cells out variant by variant, so the
// cells of one compiled graph run back to back.
func (p *Plan) PointVariant(point int) int {
	if point < 0 || point >= len(p.variant) {
		return 0
	}
	return p.variant[point]
}

// runCellHook, when non-nil, intercepts cell execution. Tests use it to
// inject deterministic mid-grid failures that the public spec surface
// cannot produce.
var runCellHook func(p *Plan, c CellJob) (RunMetrics, error, bool)

// RunCellState executes one cell on caller-owned scratch state: an executor
// worker owns one CellState and passes it to every cell it runs, so engine
// event storage and the runtime are reused across cells. The cell is a pure
// function of the plan's spec and its coordinates — same cell, same
// metrics, bit for bit, wherever and on whatever state it runs. The
// returned metrics carry the cell's seed.
func (p *Plan) RunCellState(st *CellState, c CellJob) (RunMetrics, error) {
	if c.Policy < 0 || c.Policy >= len(p.Spec.Policies) || c.Point < 0 || c.Point >= len(p.Spec.Points) {
		return RunMetrics{}, fmt.Errorf("scenario %q: cell (%d,%d) outside the %dx%d grid",
			p.Spec.Name, c.Policy, c.Point, len(p.Spec.Policies), len(p.Spec.Points))
	}
	if hook := runCellHook; hook != nil {
		if rm, err, handled := hook(p, c); handled {
			return rm, err
		}
	}
	var probe *simrt.Probe
	if p.Spec.Probe && p.Spec.Workload.Kind != HeatDist {
		probe = st.probeFor()
	}
	return p.runCell(c, st, nil, probe)
}

// RunCellTrace executes one cell with a private schedule recorder and
// introspection probe, regardless of the plan spec's Probe setting.
// Cells are pure functions of the plan and the cell coordinates, so the
// returned trace is exactly the schedule the cell's canonical result came
// from — whether that result was originally computed here, on a remote
// shard, or served from a cache. The recorder holds the task slices plus
// queue-depth, ready-task, PTT-error and per-core-utilization counter
// lanes; the returned metrics carry the Sched aggregate.
func (p *Plan) RunCellTrace(c CellJob) (RunMetrics, *trace.Recorder, error) {
	if p.Spec.Workload.Kind == HeatDist {
		return RunMetrics{}, nil, fmt.Errorf("scenario %q: sim tracing is not supported for distributed scenarios", p.Spec.Name)
	}
	if c.Policy < 0 || c.Policy >= len(p.Spec.Policies) || c.Point < 0 || c.Point >= len(p.Spec.Points) {
		return RunMetrics{}, nil, fmt.Errorf("scenario %q: cell (%d,%d) outside the %dx%d grid",
			p.Spec.Name, c.Policy, c.Point, len(p.Spec.Policies), len(p.Spec.Points))
	}
	rec := trace.New()
	rm, err := p.runCell(c, NewCellState(), rec, simrt.NewProbe())
	if err != nil {
		return RunMetrics{}, nil, err
	}
	return rm, rec, nil
}

// Merge assembles cell results (keyed by cell hash) into the plan's
// Result. Every plan cell must be present; cells sharing a hash (identical
// parameters under different labels) fill from the one shared result. The
// output is bit-identical to a monolithic Run of the plan's spec.
func Merge(p *Plan, cells map[string]RunMetrics) (*Result, error) {
	res := &Result{
		Name:     p.Spec.Name,
		Topo:     p.topo,
		Policies: make([]string, len(p.Spec.Policies)),
		Points:   append([]Point(nil), p.Spec.Points...),
		Cells:    make([][]Cell, len(p.Spec.Policies)),
	}
	for pi, pol := range p.Spec.Policies {
		res.Policies[pi] = pol.Name()
		res.Cells[pi] = make([]Cell, len(p.Spec.Points))
		for xi, pt := range p.Spec.Points {
			res.Cells[pi][xi] = Cell{Policy: pol.Name(), Point: pt, Runs: make([]RunMetrics, p.Spec.Reps)}
		}
	}
	for _, c := range p.Cells {
		rm, ok := cells[c.Hash]
		if !ok {
			return nil, fmt.Errorf("scenario %q: missing cell result for %s", p.Spec.Name, p.CellLabel(c))
		}
		res.Cells[c.Policy][c.Point].Runs[c.Rep] = rm
	}
	return res, nil
}
